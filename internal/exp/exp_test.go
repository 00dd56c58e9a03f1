package exp

import (
	"context"
	"strings"
	"testing"
	"time"

	"dpbp/internal/bpred"
	"dpbp/internal/bpred/tage"
	"dpbp/internal/cpu"
	"dpbp/internal/runcache"
	"dpbp/internal/synth"
)

// quick returns small options for test speed.
func quick(benches ...string) Options {
	return Options{Benchmarks: benches, TimingInsts: 120_000, ProfileInsts: 150_000}
}

func ctx() context.Context { return context.Background() }

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Benchmarks) != 20 {
		t.Errorf("default benchmarks = %d, want 20", len(o.Benchmarks))
	}
	if o.TimingInsts == 0 || o.ProfileInsts == 0 || o.Parallelism <= 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
}

func TestBadBenchmarkName(t *testing.T) {
	if _, err := Table1(ctx(), quick("nope")); err == nil {
		t.Error("Table1 accepted unknown benchmark")
	}
	if _, err := Figure6(ctx(), quick("nope")); err == nil {
		t.Error("Figure6 accepted unknown benchmark")
	}
	if _, _, err := RunFigure7Set(ctx(), quick("nope")); err == nil {
		t.Error("RunFigure7Set accepted unknown benchmark")
	}
	if _, err := Perfect(ctx(), quick("nope")); err == nil {
		t.Error("Perfect accepted unknown benchmark")
	}
}

// TestBadPredictorSpec checks that every experiment rejects an
// out-of-range predictor spec up front, with an error, rather than
// recording a panicked run per benchmark.
func TestBadPredictorSpec(t *testing.T) {
	o := quick("comp")
	o.BPred = bpred.Spec{Name: bpred.BackendTAGE, TAGE: tage.Config{TableEntries: -5}}
	for _, name := range []string{"table1", "fig6", "shootout", "smt"} {
		if _, err := Collect(ctx(), name, o); err == nil || !strings.Contains(err.Error(), "table_entries") {
			t.Errorf("%s: err = %v, want a table_entries range error", name, err)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(ctx(), quick("comp", "li"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0].Bench != "comp" {
		t.Fatalf("rows wrong: %+v", r.Rows)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("unexpected errors: %+v", r.Errors)
	}
	for _, row := range r.Rows {
		if len(row.ByN) != len(r.PathLengths) {
			t.Fatalf("%s: %d cells for %d path lengths", row.Bench, len(row.ByN), len(r.PathLengths))
		}
		for i, cell := range row.ByN {
			if cell.N != r.PathLengths[i] {
				t.Errorf("%s cell %d: N=%d, want %d", row.Bench, i, cell.N, r.PathLengths[i])
			}
			if len(cell.Difficult) != len(r.Thresholds) {
				t.Errorf("%s n=%d: %d difficult counts for %d thresholds",
					row.Bench, cell.N, len(cell.Difficult), len(r.Thresholds))
			}
			if cell.UniquePaths == 0 {
				t.Errorf("%s n=%d: no unique paths", row.Bench, cell.N)
			}
		}
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2(ctx(), quick("go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if len(row.ByT) != len(r.Thresholds) {
		t.Fatalf("%d blocks for %d thresholds", len(row.ByT), len(r.Thresholds))
	}
	for i, blk := range row.ByT {
		if blk.T != r.Thresholds[i] {
			t.Errorf("block %d: T=%v, want %v", i, blk.T, r.Thresholds[i])
		}
		if len(blk.ByN) != len(r.PathLengths) {
			t.Errorf("block %d: %d coverages for %d path lengths", i, len(blk.ByN), len(r.PathLengths))
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(ctx(), quick("comp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.BaselineIPC <= 0 {
		t.Error("baseline IPC missing")
	}
	for _, n := range PathLengths {
		if row.SpeedupByN[n] <= 0 {
			t.Errorf("n=%d speedup missing", n)
		}
		if r.Geomean[n] <= 0 {
			t.Errorf("n=%d geomean missing", n)
		}
	}
}

func TestFigure789SharedRuns(t *testing.T) {
	runs, runErrs, err := RunFigure7Set(ctx(), quick("comp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) != 0 {
		t.Fatalf("unexpected run errors: %+v", runErrs)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	r := runs[0]
	if r.Base == nil || r.NoPrune == nil || r.Prune == nil || r.Overhead == nil {
		t.Fatal("missing runs")
	}
	if f8 := Figure8FromRuns(runs); len(f8.Runs) != 1 {
		t.Error("fig8 from runs malformed")
	}
	if f9 := Figure9FromRuns(runs); len(f9.Runs) != 1 {
		t.Error("fig9 from runs malformed")
	}
}

func TestPerfect(t *testing.T) {
	r, err := Perfect(ctx(), quick("comp"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Speedup <= 1 {
		t.Errorf("perfect speedup %.2f <= 1", r.Rows[0].Speedup)
	}
	if r.GeomeanSpeedup <= 1 {
		t.Errorf("geomean %.2f <= 1", r.GeomeanSpeedup)
	}
}

func TestParallelismDeterminism(t *testing.T) {
	o1 := quick("comp", "li", "perl")
	o1.Parallelism = 1
	o3 := quick("comp", "li", "perl")
	o3.Parallelism = 3
	a, err := Figure6(ctx(), o1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure6(ctx(), o3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].Bench != b.Rows[i].Bench || a.Rows[i].BaselineIPC != b.Rows[i].BaselineIPC {
			t.Errorf("parallel results diverge at %d: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestProfileGuidedExperiment(t *testing.T) {
	r, err := ProfileGuided(ctx(), quick("vortex"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.GuidedPaths == 0 {
		t.Error("no guided paths found")
	}
	if row.DynamicSpeedup <= 0 || row.GuidedSpeedup <= 0 {
		t.Errorf("speedups missing: %+v", row)
	}
}

func TestAblationsExperiment(t *testing.T) {
	o := quick("comp")
	o.TimingInsts = 60_000
	r, err := Ablations(ctx(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ablationConfigs()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Speedup <= 0 {
			t.Errorf("%s: speedup %f", row.Name, row.Speedup)
		}
	}
	if r.Rows[0].Name != "default (paper)" {
		t.Error("first row should be the paper default")
	}
	if len(r.Errors) != 0 {
		t.Errorf("unexpected errors: %+v", r.Errors)
	}
}

// TestSeededPanicIsolated is the failure-isolation contract: a panic in
// one benchmark's run surfaces as that benchmark's error while every
// other benchmark completes its row.
func TestSeededPanicIsolated(t *testing.T) {
	testHookBeforeRun = func(bench string) {
		if bench == "gcc" {
			panic("seeded test panic")
		}
	}
	defer func() { testHookBeforeRun = nil }()

	o := Options{ProfileInsts: 30_000}
	r, err := Table1(ctx(), o)
	if err != nil {
		t.Fatal(err)
	}
	all := synth.Names()
	if len(r.Rows) != len(all)-1 {
		t.Errorf("rows = %d, want %d (all but gcc)", len(r.Rows), len(all)-1)
	}
	for _, row := range r.Rows {
		if row.Bench == "gcc" {
			t.Error("panicked benchmark still produced a row")
		}
	}
	if len(r.Errors) != 1 {
		t.Fatalf("errors = %+v, want exactly one", r.Errors)
	}
	if e := r.Errors[0]; e.Bench != "gcc" || !strings.Contains(e.Err, "seeded test panic") {
		t.Errorf("error misattributed: %+v", e)
	}
}

// TestRunTimeoutPartial verifies the per-run timeout turns slow runs into
// per-benchmark errors rather than hanging or failing the sweep.
func TestRunTimeoutPartial(t *testing.T) {
	o := quick("comp", "li")
	o.RunTimeout = time.Nanosecond
	r, err := Perfect(ctx(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Errorf("rows survived a 1ns budget: %+v", r.Rows)
	}
	if len(r.Errors) != 2 {
		t.Fatalf("errors = %+v, want one per benchmark", r.Errors)
	}
	for _, e := range r.Errors {
		if !strings.Contains(e.Err, "deadline") {
			t.Errorf("error should mention the deadline: %+v", e)
		}
	}
}

// TestProfileRunTimeout verifies the per-run timeout reaches inside a
// profiling run. Profiles once checked the context only before starting,
// so a 40M-instruction profile ran to completion (~2.6 s) under a 50 ms
// budget and reported a successful row.
func TestProfileRunTimeout(t *testing.T) {
	for _, cached := range []bool{false, true} {
		o := Options{Benchmarks: []string{"comp"}, ProfileInsts: 40_000_000, RunTimeout: 50 * time.Millisecond}
		if cached {
			o.Cache = runcache.New()
		}
		start := time.Now()
		r, err := Table1(ctx(), o)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("cached=%v: profile ran %v past a 50ms budget", cached, elapsed)
		}
		if len(r.Rows) != 0 || len(r.Errors) != 1 || !strings.Contains(r.Errors[0].Err, "deadline") {
			t.Errorf("cached=%v: rows %d, errors %+v; want one deadline error", cached, len(r.Rows), r.Errors)
		}
		if cached && o.Cache.Len() != 1 {
			t.Errorf("cache holds %d entries, want only the program: an aborted profile was kept", o.Cache.Len())
		}
	}
}

// TestBudgetBounds checks that over-bound instruction budgets fail every
// experiment up front.
func TestBudgetBounds(t *testing.T) {
	for _, o := range []Options{
		{Benchmarks: []string{"comp"}, TimingInsts: MaxTimingInsts + 1},
		{Benchmarks: []string{"comp"}, ProfileInsts: MaxProfileInsts + 1},
	} {
		for _, name := range []string{"table1", "fig6", "smt"} {
			if _, err := Collect(ctx(), name, o); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
				t.Errorf("%s with budgets %d/%d: err = %v, want a bound error", name, o.TimingInsts, o.ProfileInsts, err)
			}
		}
	}
	if err := (Options{TimingInsts: MaxTimingInsts, ProfileInsts: MaxProfileInsts}).Validate(); err != nil {
		t.Errorf("budgets at the bounds rejected: %v", err)
	}
}

// TestCancelledContextPartial verifies a cancelled sweep returns a
// partial (here: empty) result accounting for every benchmark.
func TestCancelledContextPartial(t *testing.T) {
	c, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Figure6(c, quick("comp", "li"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Errorf("cancelled sweep produced rows: %+v", r.Rows)
	}
	if len(r.Errors) != 2 {
		t.Errorf("errors = %+v, want one per benchmark", r.Errors)
	}
}

// TestDuplicateBenchmarkRejected checks that a benchmark listed twice
// fails every experiment up front; it once ran and reported the
// benchmark twice. An SMT mix naming one workload twice is a different
// field and stays legal.
func TestDuplicateBenchmarkRejected(t *testing.T) {
	o := quick("comp", "gcc", "comp")
	for _, name := range []string{"table1", "fig7", "shootout", "smt", "all"} {
		if _, err := Collect(ctx(), name, o); err == nil || !strings.Contains(err.Error(), `"comp" listed twice`) {
			t.Errorf("%s: err = %v, want a duplicate-benchmark error", name, err)
		}
	}
	smt, err := ParseSMTSpec("comp+comp")
	if err != nil {
		t.Fatal(err)
	}
	if err := (Options{Benchmarks: []string{"comp"}, SMT: smt}).Validate(); err != nil {
		t.Errorf("SMT mix comp+comp rejected: %v", err)
	}
}

// TestSweepKey checks that the key applies the defaults and covers
// exactly the inputs that change a clean sweep's results.
func TestSweepKey(t *testing.T) {
	base := Options{Benchmarks: []string{"comp", "gcc"}, TimingInsts: 30_000, ProfileInsts: 40_000}
	k := SweepKey("fig7", base)

	same := base
	same.Parallelism, same.RunTimeout, same.Cache = 7, time.Second, runcache.New()
	same.BPred = bpred.Spec{Name: bpred.BackendHybrid}
	if SweepKey("fig7", same) != k {
		t.Error("parallelism, run timeout, cache or a spelled-out default backend changed the key")
	}
	if SweepKey("fig7", Options{}) != SweepKey("fig7", Options{
		Benchmarks: synth.Names(), TimingInsts: defaultTimingInsts, ProfileInsts: defaultProfileInsts,
	}) {
		t.Error("zero options and explicit defaults key differently")
	}

	differ := map[string]func(o *Options){
		"order":   func(o *Options) { o.Benchmarks = []string{"gcc", "comp"} },
		"subset":  func(o *Options) { o.Benchmarks = []string{"comp"} },
		"timing":  func(o *Options) { o.TimingInsts++ },
		"profile": func(o *Options) { o.ProfileInsts++ },
		"backend": func(o *Options) { o.BPred = bpred.Spec{Name: bpred.BackendTAGE} },
		"smt": func(o *Options) {
			o.SMT.Contexts = []cpu.WorkloadRef{{Bench: "comp"}, {Bench: "gcc"}}
		},
	}
	for name, mutate := range differ {
		o := base
		mutate(&o)
		if SweepKey("fig7", o) == k {
			t.Errorf("%s change kept the key", name)
		}
	}
	if SweepKey("fig6", base) == k {
		t.Error("experiment name not in the key")
	}
}
