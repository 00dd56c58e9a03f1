package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"dpbp/internal/exp"
	"dpbp/internal/program"
	"dpbp/internal/runcache"
	"dpbp/internal/serve"
)

// The serve_swarm traffic. Every repetition is a batch of swarmBatch
// sweeps, swarmCold of them cold, so each batch does the same work and
// the median batch time is comparable across runs. A quarter cold puts
// sweep_p50_ms on warm sweeps and sweep_p90_ms on cold ones.
const (
	swarmBatch = 20
	swarmCold  = 5
	// swarmCacheEntries bounds the server's cache far below what a run's
	// cold sweeps fill, so they drive LRU eviction, while the warm
	// sweep's dozen entries stay recent.
	swarmCacheEntries = 128
	// retryDelay is how long a client waits after a 429 before it
	// submits again.
	retryDelay = 50 * time.Millisecond
)

// warmSubmission is the sweep warm requests repeat: Figure 7 runs every
// layer of a timing sweep (baseline and microthread modes over replay
// tapes and prediction overlays) at a size a server answers in a
// fraction of a second when cold.
func (r *runner) warmSubmission() serve.Submission {
	sub := serve.Submission{Experiment: "fig7", Benchmarks: []string{"gcc", "go"}, TimingInsts: 30_000, ProfileInsts: 30_000}
	if r.small {
		sub.Benchmarks, sub.TimingInsts, sub.ProfileInsts = []string{"comp"}, 5_000, 5_000
	}
	return sub
}

// subOptions maps a submission onto the harness the way the server
// does, for computing the document it must stream.
func (r *runner) subOptions(sub serve.Submission, cache *runcache.Cache) exp.Options {
	return exp.Options{
		Benchmarks:   sub.Benchmarks,
		TimingInsts:  sub.TimingInsts,
		ProfileInsts: sub.ProfileInsts,
		Parallelism:  r.par,
		Cache:        cache,
		BPred:        sub.BPred,
	}
}

// expectedDoc is the report.RenderSections JSON of exp.Collect for sub:
// the bytes the server must stream as its result.
func (r *runner) expectedDoc(ctx context.Context, sub serve.Submission, cache *runcache.Cache) ([]byte, error) {
	secs, err := exp.Collect(ctx, sub.Experiment, r.subOptions(sub, cache))
	if err != nil {
		return nil, err
	}
	return render("json", secs)
}

// server is one in-process dpbpd on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error // the Serve goroutine's result
}

func startServer(par int) (*server, error) {
	s, err := serve.New(serve.Config{Workers: par, Parallelism: par, CacheEntries: swarmCacheEntries})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	sv := &server{srv: s, http: &http.Server{Handler: s}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { sv.done <- sv.http.Serve(ln) }()
	return sv, nil
}

// close stops the listener, the open connections and the worker shards,
// and waits for the serving goroutine to return.
func (sv *server) close() error {
	err := sv.http.Close()
	if serr := <-sv.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := sv.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// outcome is one sweep as its client saw it.
type outcome struct {
	// latency runs from the first submission to the done event,
	// including any 429 retries.
	latency time.Duration
	// admit runs from the accepted submission's POST to its accepted
	// event, stream from there to the result frame.
	admit, stream time.Duration
	retries       int
	runs          int
	duped         bool
	complete      bool
	doc           []byte
	err           error
}

// ok reports whether the stream was whole: every benchmark once, a
// result frame, and the done event.
func (o *outcome) ok(benchmarks int) bool {
	return o.err == nil && o.complete && !o.duped && o.runs == benchmarks && o.doc != nil
}

func newClient(par int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: par, MaxIdleConnsPerHost: par}}
}

// sweep submits sub and consumes its event stream, retrying while the
// server answers 429, as a dpbpd caller waiting for its reply does.
func sweep(ctx context.Context, c *http.Client, url string, sub serve.Submission) outcome {
	var o outcome
	body, err := json.Marshal(sub)
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	for {
		status, err := o.post(ctx, c, url, body)
		if err == nil && status == http.StatusTooManyRequests {
			o.retries++
			select {
			case <-time.After(retryDelay):
				continue
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("sweep status %d", status)
		}
		o.err = err
		o.latency = time.Since(t0)
		return o
	}
}

// post makes one submission. On 200 it parses the NDJSON stream into o:
// run events are counted and checked for duplicates, the result frame
// is read byte for byte, and admit/stream are timed at the accepted and
// result events.
func (o *outcome) post(ctx context.Context, c *http.Client, url string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/api/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	br := bufio.NewReader(resp.Body)
	seen := map[string]bool{}
	var accepted time.Time
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return resp.StatusCode, nil
		}
		if err != nil {
			return resp.StatusCode, err
		}
		var ev struct {
			Event string `json:"event"`
			Bench string `json:"bench"`
			Bytes int    `json:"bytes"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return resp.StatusCode, fmt.Errorf("bad event line %q: %w", line, err)
		}
		switch ev.Event {
		case "accepted":
			accepted = time.Now()
			o.admit = accepted.Sub(t0)
		case "run":
			o.duped = o.duped || seen[ev.Bench]
			seen[ev.Bench] = true
			o.runs++
		case "result":
			o.stream = time.Since(accepted)
			o.doc = make([]byte, ev.Bytes)
			if _, err := io.ReadFull(br, o.doc); err != nil {
				return resp.StatusCode, fmt.Errorf("truncated result frame: %w", err)
			}
		case "done":
			o.complete = true
		case "error":
			return resp.StatusCode, fmt.Errorf("sweep error: %s", ev.Error)
		}
	}
}

// parallel calls f for 0..n-1 in order on par goroutines, each taking
// the next index when its call returns, and waits for them all.
func parallel(n, par int, f func(i int)) {
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// swarm is one serve_swarm run's traffic state.
type swarm struct {
	r      *runner
	sv     *server
	client *http.Client
	warm   serve.Submission
	// warmDoc is the document every warm sweep must stream.
	warmDoc []byte
	// coldBase offsets every cold budget, so the seed picks which
	// unique sweeps a run makes.
	coldBase uint64
	colds    int
	// pending holds the cold documents still to check.
	pending []coldDoc
	lat     []float64 // sweep latencies in ms, +Inf for failures
	done    int       // completed sweeps
	retried int       // 429 answers absorbed by resubmitting
}

type coldDoc struct {
	sub serve.Submission
	doc []byte
}

func newSwarm(r *runner) *swarm {
	return &swarm{r: r, client: newClient(r.par), warm: r.warmSubmission(), coldBase: 1 + uint64(r.rng.Intn(64))}
}

// nextCold returns a submission no earlier sweep of the run made:
// unique budgets, so it misses the cache and computes.
func (sw *swarm) nextCold() serve.Submission {
	sub := sw.warm
	sub.TimingInsts += sw.coldBase + uint64(sw.colds)
	sub.ProfileInsts = sub.TimingInsts
	sw.colds++
	return sub
}

// batch runs one repetition: swarmBatch sweeps, in a seed-shuffled
// order, through r.par closed-loop clients.
func (sw *swarm) batch(ctx context.Context) []outcome {
	subs := make([]serve.Submission, swarmBatch)
	cold := sw.r.rng.Perm(swarmBatch)[:swarmCold]
	for i := range subs {
		subs[i] = sw.warm
	}
	for _, i := range cold {
		subs[i] = sw.nextCold()
	}
	out := make([]outcome, len(subs))
	parallel(len(subs), sw.r.par, func(i int) {
		out[i] = sweep(ctx, sw.client, sw.sv.url, subs[i])
	})
	for i := range out {
		sw.record(subs[i], &out[i])
	}
	return out
}

// record folds one outcome into the latency sample and the checks. A
// failed sweep stays in the sample as a miss. A warm document is checked
// at once; cold ones are kept for checkColds.
func (sw *swarm) record(sub serve.Submission, o *outcome) {
	sw.retried += o.retries
	if !o.ok(len(sub.Benchmarks)) {
		sw.lat = append(sw.lat, math.Inf(1))
		sw.r.check(false, "sweep %+v: %v (complete %v, runs %d, duplicated %v)", sub, o.err, o.complete, o.runs, o.duped)
		return
	}
	sw.lat = append(sw.lat, ms(o.latency))
	sw.done++
	if sub.TimingInsts == sw.warm.TimingInsts {
		sw.r.check(bytes.Equal(o.doc, sw.warmDoc), "warm sweep document differs from exp.Collect's")
		return
	}
	sw.pending = append(sw.pending, coldDoc{sub, o.doc})
}

// checkColds compares every cold document with exp.Collect's for the
// same submission, computed on r.par workers after the measured window.
func (sw *swarm) checkColds(ctx context.Context) error {
	cache := runcache.New()
	errs := make([]error, len(sw.pending))
	same := make([]bool, len(sw.pending))
	parallel(len(sw.pending), sw.r.par, func(i int) {
		want, err := sw.r.expectedDoc(ctx, sw.pending[i].sub, cache)
		errs[i] = err
		same[i] = bytes.Equal(want, sw.pending[i].doc)
	})
	for i, p := range sw.pending {
		if errs[i] != nil {
			return errs[i]
		}
		sw.r.check(same[i], "cold sweep %d/%d document differs from exp.Collect's", p.sub.TimingInsts, p.sub.ProfileInsts)
	}
	sw.pending = nil
	return nil
}

// runSwarm is the serve_swarm workload: an in-process dpbpd driven by
// r.par closed-loop clients.
func runSwarm(ctx context.Context, r *runner) error {
	sw := newSwarm(r)
	defer sw.client.CloseIdleConnections()
	progs, err := r.setup(ctx, sw.warm.Benchmarks, func() error {
		if sw.sv != nil {
			if err := sw.sv.close(); err != nil {
				return err
			}
		}
		sv, err := startServer(r.par)
		if err != nil {
			return err
		}
		sw.sv = sv
		if sw.warmDoc, err = r.expectedDoc(ctx, sw.warm, runcache.New()); err != nil {
			return err
		}
		// Prime the server with the warm sweep, so warm requests are
		// hits from the first timed batch on.
		o := sweep(ctx, sw.client, sv.url, sw.warm)
		r.check(o.ok(len(sw.warm.Benchmarks)) && bytes.Equal(o.doc, sw.warmDoc), "priming sweep: %v", o.err)
		return nil
	})
	if sw.sv != nil {
		defer func() {
			if err := sw.sv.close(); err != nil {
				fmt.Fprintln(r.log, "closing the server:", err)
			}
		}()
	}
	if err != nil {
		return err
	}
	if r.trace {
		if err := sw.traced(ctx, progs); err != nil {
			return err
		}
		return sw.checkColds(ctx)
	}
	var ss []sample
	var total time.Duration
	start := time.Now()
	for r.another(start, ss) {
		s, err := measure(func() error { sw.batch(ctx); return nil })
		if err != nil {
			return err
		}
		ss = append(ss, s)
		total += s.wall
	}
	if err := sw.checkColds(ctx); err != nil {
		return err
	}
	r.reportSamples(ss)
	r.reportSweeps(sw.lat, sw.done, total)
	fmt.Fprintf(r.log, "sweeps resubmitted after 429: %d\n", sw.retried)
	return nil
}

// swarmTracedPairs is how many untraced and traced batches a traced run
// alternates.
const swarmTracedPairs = 5

// traced alternates untraced and traced batches; the traced ones supply
// the serve layer's admission and streaming times. Then it reads the
// cache counters, times the exp sections and rendering on the warm
// submission, and runs the layer probes on its programs and budgets.
func (sw *swarm) traced(ctx context.Context, progs []*program.Program) error {
	r := sw.r
	before := sw.sv.srv.CacheStats()
	var plain, traced []float64
	var admit, stream []float64
	for i := 0; i < swarmTracedPairs; i++ {
		s, err := measure(func() error { sw.batch(ctx); return nil })
		if err != nil {
			return err
		}
		plain = append(plain, secs(s.wall))
		var out []outcome
		s, err = measure(func() error { out = sw.batch(ctx); return nil })
		if err != nil {
			return err
		}
		traced = append(traced, secs(s.wall))
		for _, o := range out {
			if o.err == nil {
				admit = append(admit, ms(o.admit))
				stream = append(stream, ms(o.stream))
			}
		}
	}
	r.set("trace.overhead_pct", 100*(median(traced)-median(plain))/median(plain))
	r.set("serve.admit_ms", median(admit))
	r.set("serve.stream_ms", median(stream))
	ratio, err := metricsHitRatio(ctx, sw.client, sw.sv.url)
	if err != nil {
		return err
	}
	r.set("serve.hit_ratio", ratio)
	after := sw.sv.srv.CacheStats()
	r.cacheStats(runcache.Stats{
		Lookups:   after.Lookups - before.Lookups,
		Hits:      after.Hits - before.Hits,
		Waits:     after.Waits - before.Waits,
		Computes:  after.Computes - before.Computes,
		Evictions: after.Evictions - before.Evictions,
	})

	got, err := exp.Collect(ctx, sw.warm.Experiment, r.subOptions(sw.warm, runcache.New()))
	if err != nil {
		return err
	}
	r.set("report.render_ms", ms(medianDuration(5, func() time.Duration {
		t0 := time.Now()
		if _, err := render("json", got); err != nil {
			r.check(false, "render: %v", err)
		}
		return time.Since(t0)
	})))
	if err := r.timeSections(ctx, r.subOptions(sw.warm, runcache.New()), nil); err != nil {
		return err
	}
	return r.probes(ctx, progs, sw.warm.TimingInsts, sw.warm.ProfileInsts, func() *runcache.Cache {
		return runcache.NewBounded(runcache.Limits{MaxEntries: swarmCacheEntries})
	})
}

// probeWarmSweeps is how many warm repeats follow the serve probe's
// cold submission.
const probeWarmSweeps = 10

// serveProbe measures the serve layer for a workload that has no
// server of its own: one cold submission of sub, then warm repeats of
// it, each document checked against exp.Collect's.
func (r *runner) serveProbe(ctx context.Context, sub serve.Submission) error {
	sv, err := startServer(r.par)
	if err != nil {
		return err
	}
	defer func() {
		if err := sv.close(); err != nil {
			fmt.Fprintln(r.log, "closing the probe server:", err)
		}
	}()
	c := newClient(r.par)
	defer c.CloseIdleConnections()
	want, err := r.expectedDoc(ctx, sub, runcache.New())
	if err != nil {
		return err
	}
	var admit, stream []float64
	for i := 0; i <= probeWarmSweeps; i++ {
		o := sweep(ctx, c, sv.url, sub)
		r.check(o.ok(len(sub.Benchmarks)) && bytes.Equal(o.doc, want), "serve probe sweep %d: %v", i, o.err)
		if i > 0 {
			admit = append(admit, ms(o.admit))
			stream = append(stream, ms(o.stream))
		}
	}
	r.set("serve.admit_ms", median(admit))
	r.set("serve.stream_ms", median(stream))
	ratio, err := metricsHitRatio(ctx, c, sv.url)
	r.set("serve.hit_ratio", ratio)
	return err
}

// metricsHitRatio reads the shared cache's hit ratio from the server's
// own /metrics report: hits and waits over lookups.
func metricsHitRatio(ctx context.Context, c *http.Client, url string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	lookups := doc.Counters["runcache.lookups"]
	if lookups == 0 {
		return 0, fmt.Errorf("/metrics reports no runcache.lookups")
	}
	return float64(doc.Counters["runcache.hits"]+doc.Counters["runcache.waits"]) / float64(lookups), nil
}
