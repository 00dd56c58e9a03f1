package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dpbp/internal/results"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q has a bad name or unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: better is %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name != "setup_s" && m.bound >= endToEnd[0].bound {
			t.Errorf("setup_s must have the largest bound; %q has %v", m.name, m.bound)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if !bytes.Contains(readme, []byte("`"+m.name+"`")) {
			t.Errorf("README.md does not say what per-layer metric %q should move", m.name)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.name)
		}
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json to the metric and
// workload tables the runs emit from, so every listed name is emitted
// and every emitted name is listed.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, command has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []fileMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: file lists %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: file has %+v, table has %+v", kind, i, g, m)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)
}

func TestTailPercentile(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	if v, ok := tailPercentile(sample(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, ok)
	}
	if _, ok := tailPercentile(sample(99), 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must not be reported")
	}
	if v, ok := tailPercentile(sample(21), 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v", v, ok)
	}
	withMisses := append(sample(100), math.Inf(1), math.Inf(1))
	if v, _ := tailPercentile(withMisses, 0.9); v != 92 {
		t.Errorf("misses must count against the tail: p90 = %v, want 92", v)
	}
}

func TestReportSweepsFallsBackBelowTheTailRule(t *testing.T) {
	r := testRunner(t)
	r.reportSweeps([]float64{30, 10, 20}, 3, 60*time.Millisecond)
	if r.metrics["sweep_p90_ms"] != 20 || r.metrics["sweep_p50_ms"] != 20 {
		t.Errorf("3 samples: p50 %v, p90 %v; want the median 20 for both", r.metrics["sweep_p50_ms"], r.metrics["sweep_p90_ms"])
	}
	if got := r.metrics["sweeps_per_s"]; math.Abs(got-50) > 1e-9 {
		t.Errorf("sweeps_per_s = %v, want 50", got)
	}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1
	}
	for i := 80; i < 100; i++ {
		lat[i] = math.Inf(1)
	}
	r.reportSweeps(lat, 80, 2*time.Second)
	if got := r.metrics["sweep_p90_ms"]; got != 2000 {
		t.Errorf("a failed sweep on p90 must cost the whole window: got %v", got)
	}
}

func testRunner(t *testing.T) *runner {
	r := newRunner(1, time.Millisecond, false, "..", io.Discard)
	r.small = true
	if testing.Verbose() {
		r.log = os.Stderr
	}
	return r
}

func TestGoldenMismatchCounts(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, filepath.FromSlash(goldenPath))
	if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", filepath.FromSlash(goldenPath)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, bytes.Replace(want, []byte("comp"), []byte("COMP"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	r := testRunner(t)
	if err := r.goldenCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 1 || r.failed != 0 {
		t.Fatalf("true golden: attempted %d, failed %d", r.attempted, r.failed)
	}
	r.root = dir
	if err := r.goldenCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 2 || r.failed != 1 {
		t.Errorf("injected golden mismatch: attempted %d, failed %d; want 2, 1", r.attempted, r.failed)
	}
}

func TestSwarmCountsBadDocuments(t *testing.T) {
	r := testRunner(t)
	sw := newSwarm(r)
	sw.warmDoc = []byte(`{"ok":1}`)
	whole := outcome{complete: true, runs: len(sw.warm.Benchmarks), latency: time.Millisecond}

	good := whole
	good.doc = []byte(`{"ok":1}`)
	sw.record(sw.warm, &good)
	bad := whole
	bad.doc = []byte(`{"ok":2}`)
	sw.record(sw.warm, &bad)
	duped := good
	duped.duped = true
	sw.record(sw.warm, &duped)
	cut := good
	cut.complete = false
	sw.record(sw.warm, &cut)

	if r.attempted != 4 || r.failed != 3 {
		t.Errorf("attempted %d, failed %d; want 4, 3", r.attempted, r.failed)
	}
	if sw.done != 2 || len(sw.lat) != 4 || !math.IsInf(sw.lat[2], 1) || !math.IsInf(sw.lat[3], 1) {
		t.Errorf("done %d, latencies %v: a whole stream completes, a broken one stays as a miss", sw.done, sw.lat)
	}

	// A cold document is checked against exp.Collect's after the window.
	cold := sw.nextCold()
	doc, err := r.expectedDoc(context.Background(), cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range [][]byte{doc, append([]byte(" "), doc...)} {
		o := whole
		o.doc = d
		sw.record(cold, &o)
	}
	if err := sw.checkColds(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 6 || r.failed != 4 {
		t.Errorf("after cold checks: attempted %d, failed %d; want 6, 4", r.attempted, r.failed)
	}
}

func TestRunErrorsCountsDroppedRows(t *testing.T) {
	secs := []results.Section{
		{Key: "figure6", Val: &results.Figure6Result{Errors: []results.RunError{{Bench: "gcc", Err: "x"}}}},
		{Key: "perfect", Val: &results.PerfectResult{Errors: []results.RunError{{}, {}}}},
	}
	if n := runErrors(secs); n != 3 {
		t.Errorf("runErrors = %d, want 3", n)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload, shrunk, in both
// modes: each must pass its checks and emit exactly its mode's table.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := testRunner(t)
			r.trace = trace
			res, err := r.execute(context.Background(), w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got, names []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				names = append(names, m.name)
			}
			sort.Strings(got)
			sort.Strings(names)
			if strings.Join(got, " ") != strings.Join(names, " ") {
				t.Errorf("%s trace=%v emitted %v, want %v", w.name, trace, got, names)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; ok && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v; end-to-end metrics are never 0", w.name, m.name, v.Value)
				}
			}
		}
	}
}

// TestRunOutsideRepository: without the repository around it the
// command exits non-zero and prints no result.
func TestRunOutsideRepository(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var stdout bytes.Buffer
	code := run([]string{"--workload", "paper_all", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, io.Discard)
	if code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want a non-zero exit and no result", code, stdout.String())
	}
	if code := run([]string{"--workload", "nope"}, &stdout, io.Discard); code == 0 {
		t.Error("an unknown workload must fail")
	}
}
