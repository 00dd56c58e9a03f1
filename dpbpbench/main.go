// Command dpbpbench is dpbp's benchmark. It drives one named workload
// in-process through the dpbp packages' public functions, checks every
// output it produces, and prints one JSON result line as the last line
// of its standard output:
//
//	dpbpbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it runs the workload once untraced and
// once with every exp-layer call timed, then replays inputs recorded
// from the workload's own programs into each layer's public functions,
// and reports the per-layer metrics. The metric tables are in
// metrics.go; README.md records which end-to-end metric each layer
// metric should move. run.sh builds the command from the checkout and
// runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one named traffic mix. why is its one-line reason, as
// BENCHMARK.json records it.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, r *runner) error
}

var workloads = []workload{
	{
		name: "paper_all",
		why:  "dpbp -exp all at default budgets on a fresh cache: runcache sharing, replay tapes, pathprof and all four timing modes",
		run:  paperAll.run,
	},
	{
		name: "extensions",
		why:  "shootout then smt: six predictor configs per benchmark (bpred backends via overlays, low sharing, no pathprof) and SMT contexts",
		run:  extensions.run,
	},
	{
		name: "serve_swarm",
		why:  "closed-loop dpbpd clients: warm repeats are cache hits (admission, streaming, rendering); unique cold sweeps compute and evict",
		run:  runSwarm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// goldenPath is where the CLI tests keep the byte-exact output of
// `dpbp -exp all -bench comp,gcc -insts 60000 -profinsts 60000`,
// relative to the repository root.
const goldenPath = "cmd/dpbp/testdata/golden_all.txt"

// setupReps is how many times a run repeats its set-up; setup_s is
// their median.
const setupReps = 5

// runner carries one invocation's settings and accumulates its checks
// and metrics.
type runner struct {
	seed    int64
	seconds time.Duration
	// par bounds GOMAXPROCS, each sweep's parallelism, server workers
	// and client connections alike.
	par   int
	trace bool
	// root is the repository root, where the golden file lives.
	root string
	// small shrinks every workload to test size.
	small bool
	log   io.Writer
	rng   *rand.Rand

	attempted, failed int
	metrics           map[string]float64
}

func newRunner(seed int64, seconds time.Duration, trace bool, root string, log io.Writer) *runner {
	return &runner{
		seed:    seed,
		seconds: seconds,
		par:     min(2, runtime.NumCPU()),
		trace:   trace,
		root:    root,
		log:     log,
		rng:     rand.New(rand.NewSource(seed)),
		metrics: map[string]float64{},
	}
}

func (r *runner) set(name string, v float64) { r.metrics[name] = v }

// check counts one checked operation, and a failure when ok is false.
func (r *runner) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
	}
	return ok
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs the workload and shapes its result from the metrics of
// the run's mode. It fails when the workload missed one of them or
// measured a name no table lists.
func (r *runner) execute(ctx context.Context, w workload) (*result, error) {
	if err := w.run(ctx, r); err != nil {
		return nil, err
	}
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for name := range r.metrics {
		if !known(name) {
			return nil, fmt.Errorf("workload %s measured %s, which no metric table lists", w.name, name)
		}
	}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", w.name, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured %s as %v", w.name, m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	fmt.Fprintf(r.log, "checked %d outputs, %d failed (error_rate %g)\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	return res, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpbpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper_all, extensions or serve_swarm")
	seed := fs.Int64("seed", 1, "seed for serve_swarm traffic and layer-probe sampling")
	seconds := fs.Int("seconds", 25, "how long the repetitions of one run measure")
	trace := fs.Int("trace", 0, "0 for end-to-end metrics, 1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "dpbpbench: need --workload (paper_all, extensions, serve_swarm), --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	// The golden file doubles as the check that this runs from a full
	// checkout of the repository.
	if _, err := os.Stat(filepath.FromSlash(goldenPath)); err != nil {
		fmt.Fprintln(stderr, "dpbpbench: run from the repository root:", err)
		return 1
	}
	r := newRunner(*seed, time.Duration(*seconds)*time.Second, *trace == 1, ".", stderr)
	runtime.GOMAXPROCS(r.par)
	res, err := r.execute(context.Background(), w)
	if err != nil {
		fmt.Fprintln(stderr, "dpbpbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dpbpbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
