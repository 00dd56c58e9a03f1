package serve

import (
	"reflect"
	"runtime"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/pathprof"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

func generate(t *testing.T, bench string) *program.Program {
	t.Helper()
	p, err := synth.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return synth.Generate(p)
}

// TestApproxSizeProfile checks that the cache's size bound sees what a
// cached profile really retains. approxSize once charged every map a flat
// 64 bytes and sized a slice by its first element, so a gcc profile
// holding megabytes was charged a few hundred bytes.
func TestApproxSizeProfile(t *testing.T) {
	prog := generate(t, "gcc")
	cfg := pathprof.DefaultConfig()
	cfg.MaxInsts = 1_000_000
	p := pathprof.Run(prog, cfg)
	got := approxSize(p)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	with := heap()
	runtime.KeepAlive(p) // dead from here on, so the next GC frees it
	retained := with - heap()
	if retained <= 0 {
		t.Fatalf("dropping the profile freed %d bytes; cannot measure", retained)
	}
	t.Logf("approxSize %d bytes, retained %d bytes", got, retained)
	if got < retained/2 || got > retained*2 {
		t.Errorf("approxSize = %d bytes, profile retains %d: want within 2x", got, retained)
	}
}

// TestApproxSizeResultUnchanged pins the estimate for timing results, the
// bulk of a sweep's cache entries, to the first-element rule it used
// before slices of reference-holding elements were walked: cpu.Result
// holds no such slice, so its charge must not move.
func TestApproxSizeResultUnchanged(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.MaxInsts = 60_000
	r := cpu.Run(generate(t, "comp"), cfg)
	if got, want := approxSize(r), firstElemSize(reflect.ValueOf(r), 0); got != want {
		t.Errorf("approxSize(cpu.Result) = %d, want %d", got, want)
	}
}

// firstElemSize is sizeOfValue with every slice sized as its length
// times the size of element 0.
func firstElemSize(v reflect.Value, depth int) int64 {
	if !v.IsValid() || depth > 8 {
		return 0
	}
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 8
		}
		return 8 + firstElemSize(v.Elem(), depth+1)
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += firstElemSize(v.Field(i), depth+1)
		}
		return n
	case reflect.Slice, reflect.Array:
		n := int64(24)
		if l := v.Len(); l > 0 {
			n += int64(l) * firstElemSize(v.Index(0), depth+1)
		}
		return n
	case reflect.String:
		return 16 + int64(v.Len())
	case reflect.Map, reflect.Chan, reflect.Func:
		return 64
	default:
		return int64(v.Type().Size())
	}
}
