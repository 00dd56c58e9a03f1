package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/pathprof"
)

// goldenFingerprint stands in for a program fingerprint in the golden
// keys below.
var goldenFingerprint = sha256.Sum256([]byte("golden"))

// goldenCPUConfig is a canonical timing config off the defaults in mode,
// switches, budget and backend.
func goldenCPUConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.Mode = cpu.ModeMicrothread
	cfg.Pruning = true
	cfg.UsePredictions = true
	cfg.MaxInsts = 30_000
	cfg.BPred = bpred.Spec{Name: "tage"}
	return cfg.Canonical()
}

// goldenMixedParts covers every kind the encoder accepts: signed and
// unsigned widths, bools, floats, complex, strings, nil and non-nil
// slices, arrays, named structs, nil and non-nil pointers, interfaces
// and a nil func.
func goldenMixedParts() []any {
	type inner struct {
		A int8
		B []string
		C *uint16
	}
	seven := uint16(7)
	var nilFunc func()
	return []any{
		int8(-3), int64(-1 << 40), uint8(255), uint64(1 << 63), uintptr(9),
		true, false, float32(0.5), 2.25, complex(1.5, -2),
		"", "héllo", []int(nil), []int{1, 2, 3}, [2]string{"a", "b"},
		inner{A: 1, B: []string{"x"}, C: &seven}, inner{}, (*int)(nil),
		[]any{1, "one", nil, inner{}}, nilFunc,
	}
}

// TestKeyOfGolden pins KeyOf's bytes. Keys name entries in the disk
// tier, so any change to the encoding orphans every stored result; these
// vectors were computed by the original hash-as-you-walk encoder. The
// cpu vector also pins cpu.Config's shape: adding or removing a field
// orphans every stored timing run, so such a change updates that vector
// deliberately.
func TestKeyOfGolden(t *testing.T) {
	cases := []struct {
		name string
		key  Key
		want string
	}{
		{"cpu", KeyOf("cpu", goldenFingerprint, goldenCPUConfig()),
			"ec4e0d9e8cce8b4c84e2d8b6931ea6bc9909dfec03a57ca10e0300c2e1681567"},
		{"pathprof", KeyOf("pathprof", goldenFingerprint, pathprof.DefaultConfig().Canonical()),
			"49efd008a905d43cc0f35d0b9e0ee5aa80426dbd8ed9439e67e54d0c332d983b"},
		{"program", KeyOf("program", "gcc"),
			"706dadf68596b75bb63546797181c85e042da566a15957e3aee3b5c7627c92bb"},
		{"mixed", KeyOf("mixed", goldenMixedParts()...),
			"8ef76ba4446976d1a97957e5895accc72491a3df6dc12ce1f1bfb852a8c74568"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.key[:]); got != c.want {
			t.Errorf("%s key = %s, want %s", c.name, got, c.want)
		}
	}
}

var sinkKey Key

// BenchmarkKeyOf measures one timing-run key, the lookup every cached
// run pays.
func BenchmarkKeyOf(b *testing.B) {
	cfg := goldenCPUConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = KeyOf("cpu", goldenFingerprint, cfg)
	}
}
