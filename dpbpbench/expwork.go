package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"dpbp/internal/exp"
	"dpbp/internal/program"
	"dpbp/internal/report"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
	"dpbp/internal/serve"
	"dpbp/internal/synth"
)

// section is one experiment call of a repetition. The traced run times
// each call as the exp layer's share of the workload.
type section struct {
	metric string
	call   func(ctx context.Context, o exp.Options) ([]results.Section, error)
}

func collect(name string) func(context.Context, exp.Options) ([]results.Section, error) {
	return func(ctx context.Context, o exp.Options) ([]results.Section, error) {
		return exp.Collect(ctx, name, o)
	}
}

// figure7Sections is the tail of Collect("all"): one run set feeds
// Figures 7, 8 and 9.
func figure7Sections(ctx context.Context, o exp.Options) ([]results.Section, error) {
	runs, runErrs, err := exp.RunFigure7Set(ctx, o)
	if err != nil {
		return nil, err
	}
	return []results.Section{
		{Key: "figure7", Val: &results.Figure7Result{Runs: runs, Errors: runErrs}},
		{Key: "figure8", Val: exp.Figure8FromRuns(runs)},
		{Key: "figure9", Val: exp.Figure9FromRuns(runs)},
	}, nil
}

// sections lists every exp call a workload makes, in Collect("all")
// order followed by the extension studies.
var sections = []section{
	{"exp.table1_s", collect("table1")},
	{"exp.table2_s", collect("table2")},
	{"exp.perfect_s", collect("perfect")},
	{"exp.figure6_s", collect("fig6")},
	{"exp.figure7_s", figure7Sections},
	{"exp.shootout_s", collect("shootout")},
	{"exp.smt_s", collect("smt")},
}

// expWorkload is a workload that runs experiments the way the dpbp CLI
// does: all twenty benchmarks at the library's default budgets, on a
// fresh run cache with replay on, rendered as text.
type expWorkload struct {
	// rep makes one untraced repetition as a user makes it; nil means
	// calling own in order on one cache.
	rep func(ctx context.Context, o exp.Options) ([]results.Section, error)
	// own lists the calls that make the same sections one at a time.
	own []section
	// serveExp is the experiment the workload's serve probe submits.
	serveExp string
}

var (
	paperAll   = expWorkload{rep: collect("all"), own: sections[:5], serveExp: "all"}
	extensions = expWorkload{own: sections[5:], serveExp: "shootout"}
)

// Default budgets of the exp harness, which the CLI and the exp
// workloads run at; the layer probes replay the same lengths.
const (
	defaultTimingInsts  = 400_000
	defaultProfileInsts = 1_000_000
)

// expOptions returns a repetition's options: a fresh cache, and the
// CLI's defaults unless the runner is shrunk for tests.
func (r *runner) expOptions() exp.Options {
	o := exp.Options{Parallelism: r.par, Cache: runcache.New()}
	if r.small {
		o.Benchmarks = []string{"comp", "gcc"}
		o.TimingInsts, o.ProfileInsts = 20_000, 20_000
	}
	return o
}

// budgets returns the instruction budgets o runs at.
func budgets(o exp.Options) (timing, profile uint64) {
	timing, profile = o.TimingInsts, o.ProfileInsts
	if timing == 0 {
		timing = defaultTimingInsts
	}
	if profile == 0 {
		profile = defaultProfileInsts
	}
	return timing, profile
}

func benchmarks(o exp.Options) []string {
	if len(o.Benchmarks) == 0 {
		return synth.Names()
	}
	return o.Benchmarks
}

func (w expWorkload) repetition(ctx context.Context, o exp.Options) ([]results.Section, error) {
	if w.rep != nil {
		return w.rep(ctx, o)
	}
	var out []results.Section
	for _, s := range w.own {
		secs, err := s.call(ctx, o)
		if err != nil {
			return nil, err
		}
		out = append(out, secs...)
	}
	return out, nil
}

func render(format string, secs []results.Section) ([]byte, error) {
	var b bytes.Buffer
	err := report.RenderSections(&b, format, secs)
	return b.Bytes(), err
}

// runErrors counts the rows the sections' experiments dropped: every
// result type records its failed runs in a top-level Errors list.
func runErrors(secs []results.Section) int {
	n := 0
	for _, s := range secs {
		v := reflect.Indirect(reflect.ValueOf(s.Val))
		if v.Kind() != reflect.Struct {
			continue
		}
		if f := v.FieldByName("Errors"); f.IsValid() && f.Kind() == reflect.Slice {
			n += f.Len()
		}
	}
	return n
}

func (w expWorkload) run(ctx context.Context, r *runner) error {
	o := r.expOptions()
	progs, err := r.setup(ctx, benchmarks(o), nil)
	if err != nil {
		return err
	}
	if r.trace {
		return w.traced(ctx, r, progs)
	}
	var first []byte
	var ss []sample
	start := time.Now()
	for r.another(start, ss) {
		var out []byte
		var dropped int
		s, err := measure(func() error {
			secs, err := w.repetition(ctx, r.expOptions())
			if err != nil {
				return err
			}
			dropped = runErrors(secs)
			out, err = render("", secs)
			return err
		})
		if err != nil {
			return err
		}
		if first == nil {
			first = out
		}
		r.check(dropped == 0 && bytes.Equal(out, first),
			"repetition %d: %d dropped runs, output equal to the first: %v", len(ss)+1, dropped, bytes.Equal(out, first))
		ss = append(ss, s)
	}
	r.reportSamples(ss)
	lat := make([]float64, len(ss))
	var total time.Duration
	for i, s := range ss {
		lat[i] = ms(s.wall)
		total += s.wall
	}
	r.reportSweeps(lat, len(ss), total)
	return nil
}

// traced makes one untraced and one traced repetition, times the exp
// sections the workload does not own on the same options, and runs the
// layer probes over the workload's programs.
func (w expWorkload) traced(ctx context.Context, r *runner, progs []*program.Program) error {
	var plain []byte
	s0, err := measure(func() error {
		secs, err := w.repetition(ctx, r.expOptions())
		if err != nil {
			return err
		}
		plain, err = render("", secs)
		return err
	})
	if err != nil {
		return err
	}

	o := r.expOptions()
	var got []results.Section
	var traced []byte
	s1, err := measure(func() error {
		for _, s := range w.own {
			t0 := time.Now()
			out, err := s.call(ctx, o)
			if err != nil {
				return err
			}
			r.set(s.metric, secs(time.Since(t0)))
			got = append(got, out...)
		}
		var err error
		traced, err = render("", got)
		return err
	})
	if err != nil {
		return err
	}
	r.check(runErrors(got) == 0 && bytes.Equal(traced, plain),
		"traced repetition: %d dropped runs, output equal to the untraced one: %v", runErrors(got), bytes.Equal(traced, plain))
	r.set("trace.overhead_pct", 100*(s1.wall.Seconds()-s0.wall.Seconds())/s0.wall.Seconds())
	r.cacheStats(o.Cache.Stats())
	r.set("report.render_ms", ms(medianDuration(5, func() time.Duration {
		t0 := time.Now()
		if _, err := render("", got); err != nil {
			r.check(false, "render: %v", err)
		}
		return time.Since(t0)
	})))

	if err := r.timeSections(ctx, r.expOptions(), w.own); err != nil {
		return err
	}
	timing, profile := budgets(o)
	sub := serve.Submission{
		Experiment:   w.serveExp,
		Benchmarks:   []string{progs[r.rng.Intn(len(progs))].Name},
		TimingInsts:  timing,
		ProfileInsts: profile,
	}
	if err := r.serveProbe(ctx, sub); err != nil {
		return err
	}
	return r.probes(ctx, progs, timing, profile, runcache.New)
}

// timeSections times, on options o, every exp section a workload's
// repetition does not make, so each traced run reports the whole exp
// layer on its own inputs.
func (r *runner) timeSections(ctx context.Context, o exp.Options, own []section) error {
	for _, s := range sections {
		if containsSection(own, s.metric) {
			continue
		}
		t0 := time.Now()
		out, err := s.call(ctx, o)
		if err != nil {
			return err
		}
		r.set(s.metric, secs(time.Since(t0)))
		r.check(runErrors(out) == 0, "%s: %d dropped runs", s.metric, runErrors(out))
	}
	return nil
}

func containsSection(ss []section, metric string) bool {
	for _, s := range ss {
		if s.metric == metric {
			return true
		}
	}
	return false
}

func (r *runner) cacheStats(st runcache.Stats) {
	ratio := 0.0
	if st.Lookups > 0 {
		ratio = float64(st.Hits+st.Waits) / float64(st.Lookups)
	}
	r.set("runcache.hit_ratio", ratio)
	r.set("runcache.computes", float64(st.Computes))
	r.set("runcache.evictions", float64(st.Evictions))
}

// reportSweeps sets the sweep metrics from per-sweep latencies in
// milliseconds (+Inf for a failed sweep). A tail percentile needs
// minTail samples beyond it; with fewer, sweep_p90_ms reports the
// median and says so.
func (r *runner) reportSweeps(lat []float64, completed int, elapsed time.Duration) {
	p50 := median(lat)
	p90, ok := tailPercentile(lat, 0.9)
	if !ok {
		p90 = p50
		fmt.Fprintf(r.log, "sweep_p90_ms: %d samples leave fewer than %d beyond p90; reporting the median\n", len(lat), minTail)
	}
	// A failed sweep missed every latency limit; if one lands on a
	// reported percentile, charge it the whole measured window.
	miss := ms(elapsed)
	r.set("sweep_p50_ms", capInf(p50, miss))
	r.set("sweep_p90_ms", capInf(p90, miss))
	r.set("sweeps_per_s", float64(completed)/elapsed.Seconds())
	fmt.Fprintf(r.log, "sweeps: %d samples, %d completed in %v\n", len(lat), completed, elapsed.Round(time.Millisecond))
}

func capInf(v, limit float64) float64 {
	if v > limit {
		return limit
	}
	return v
}

// setup generates the workload's programs, checks the golden output and
// runs extra (the server start, for serve_swarm), setupReps times. It
// records setup_s and synth.generate_ms as medians and returns the last
// generation's programs.
func (r *runner) setup(ctx context.Context, names []string, extra func() error) ([]*program.Program, error) {
	var total, gen []float64
	var progs []*program.Program
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		progs = progs[:0]
		for _, name := range names {
			p, err := synth.ProfileByName(name)
			if err != nil {
				return nil, err
			}
			progs = append(progs, synth.Generate(p))
		}
		gen = append(gen, ms(time.Since(t0)))
		if err := r.goldenCheck(ctx); err != nil {
			return nil, err
		}
		if extra != nil {
			if err := extra(); err != nil {
				return nil, err
			}
		}
		total = append(total, secs(time.Since(t0)))
	}
	r.set("setup_s", median(total))
	r.set("synth.generate_ms", median(gen))
	return progs, nil
}

// goldenCheck runs `-exp all` on comp and gcc at 60K/60K as the CLI's
// golden test does and compares the text byte for byte with the file
// that test keeps.
func (r *runner) goldenCheck(ctx context.Context) error {
	want, err := os.ReadFile(filepath.Join(r.root, filepath.FromSlash(goldenPath)))
	if err != nil {
		return err
	}
	o := exp.Options{
		Benchmarks:   []string{"comp", "gcc"},
		TimingInsts:  60_000,
		ProfileInsts: 60_000,
		Parallelism:  r.par,
		Cache:        runcache.New(),
	}
	secs, err := exp.Collect(ctx, "all", o)
	if err != nil {
		return err
	}
	got, err := render("", secs)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(got, want), "golden check: -exp all on comp,gcc differs from %s", goldenPath)
	return nil
}
