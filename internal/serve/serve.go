// Package serve is the dpbpd sweep service: a long-running HTTP/JSON
// front end over the same experiment harness the dpbp CLI drives. A
// submission names an experiment (the -exp vocabulary, including "all"),
// a benchmark set, a predictor backend spec, and instruction budgets;
// the server streams one partial result per benchmark as it retires and
// finishes with the complete document — rendered by the exact code path
// the CLI uses (exp.Collect + report.RenderSections), so the streamed
// result is byte-identical to `dpbp -format json` for the same sweep.
//
// # Architecture
//
// Submissions pass admission control into a bounded queue and are
// executed by a fixed pool of worker shards, each running one sweep at a
// time through sched.Run's bounded-parallel, cancellable, panic-isolated
// fan-out. All shards share one two-tier run cache: a bounded in-memory
// LRU tier (runcache.NewBounded) in front of an optional content-
// addressed disk store (runcache.DiskStore), so repeated sweeps from any
// number of clients hit warm entries — across process restarts when a
// disk directory is configured.
//
// # Backpressure
//
// The queue admits at most QueueDepth waiting sweeps beyond the ones in
// flight; a full queue answers 429 with a Retry-After hint rather than
// accepting unbounded work. Cancelling the client request (or exceeding
// SweepTimeout) cancels the sweep's context, which sched.Run drains
// promptly even when every worker slot is busy.
//
// # Protocol
//
// POST /api/v1/sweeps with a Submission body answers a streamed NDJSON
// event sequence: "accepted", one "run" per benchmark carrying that
// benchmark's partial document, then "result" announcing a byte count
// followed by exactly that many raw bytes (the final indented JSON
// document), and "done". Errors mid-stream arrive as an "error" event.
// GET /healthz and GET /metrics (an obs.Registry over server, cache, and
// disk counters) complete the surface.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dpbp/internal/bpred"
	"dpbp/internal/exp"
	"dpbp/internal/obs"
	"dpbp/internal/report"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
	"dpbp/internal/synth"
)

// Config sizes the server. The zero value of any field selects a
// sensible daemon default (see withDefaults); unlike the CLI's unbounded
// cache, a server defaults to a bounded in-memory tier because it is
// expected to outlive any single sweep.
type Config struct {
	// Workers is the number of sweep shards executing concurrently.
	Workers int
	// QueueDepth bounds submissions waiting behind the in-flight ones;
	// a full queue rejects with 429 + Retry-After.
	QueueDepth int
	// CacheEntries bounds the in-memory run-cache tier by entry count
	// (0 = default bound; negative = unbounded).
	CacheEntries int
	// CacheBytes additionally bounds the tier by estimated resident
	// bytes (0 = no byte bound).
	CacheBytes int64
	// DiskDir, when non-empty, attaches a content-addressed disk store
	// at this directory as the cache's backing tier, so warm entries
	// survive restarts and are shared between processes.
	DiskDir string
	// Parallelism bounds each sweep's concurrent benchmark runs
	// (0 = GOMAXPROCS, exactly like the CLI's -j).
	Parallelism int
	// RunTimeout is the default per-benchmark-run budget applied to
	// every sweep (0 = none); a submission may override it.
	RunTimeout time.Duration
	// SweepTimeout bounds a whole submission from acceptance to final
	// document (0 = none).
	SweepTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // explicit "unbounded"
	}
	return c
}

// Stats counts server traffic; Server.Stats snapshots it and /metrics
// registers it (with the cache tiers' own stats) in an obs.Registry.
type Stats struct {
	// Submitted counts accepted sweep submissions; Rejected the ones
	// refused by admission control (queue full or server closing).
	Submitted uint64
	Rejected  uint64
	// Completed, Cancelled, and Failed partition finished sweeps by
	// outcome: full document streamed, context cancelled (client gone
	// or sweep timeout), or an experiment error.
	Completed uint64
	Cancelled uint64
	Failed    uint64
	// Runs counts per-benchmark partial results streamed.
	Runs uint64
}

// Server is the dpbpd HTTP handler plus its worker pool and shared
// two-tier cache. Create with New, serve via ServeHTTP (it implements
// http.Handler), and stop with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *runcache.Cache
	disk  *runcache.DiskStore

	queue      chan *job
	stopped    chan struct{}
	base       context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	closed bool
	stats  Stats
}

// New builds a server, opening the disk tier (if configured) and
// starting the worker shards.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	lim := runcache.Limits{MaxEntries: cfg.CacheEntries, MaxBytes: cfg.CacheBytes}
	if cfg.CacheBytes > 0 {
		lim.SizeOf = approxSize
	}
	s := &Server{
		cfg:     cfg,
		cache:   runcache.NewBounded(lim),
		queue:   make(chan *job, cfg.QueueDepth),
		stopped: make(chan struct{}),
	}
	if cfg.DiskDir != "" {
		disk, err := runcache.NewDiskStore(cfg.DiskDir, ResultCodec())
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.cache.SetTier(disk)
	}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/api/v1/sweeps", s.handleSweeps)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP dispatches to the API endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats snapshots the traffic counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CacheStats snapshots the shared run cache's counters.
func (s *Server) CacheStats() runcache.Stats { return s.cache.Stats() }

// Close stops accepting submissions, cancels in-flight sweeps, fails
// queued ones, and waits for the worker shards to exit. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Fail everything still queued; no handler can enqueue past the
	// closed flag, and workers draining concurrently is harmless.
	for {
		select {
		case j := <-s.queue:
			j.emit(errorLine("server shutting down"))
			close(j.events)
		default:
			s.mu.Unlock()
			s.baseCancel()
			close(s.stopped)
			s.wg.Wait()
			return nil
		}
	}
}

// Submission is one sweep request: the -exp vocabulary over HTTP.
// Zero-valued fields take the CLI defaults (all benchmarks, hybrid
// backend, library instruction budgets).
type Submission struct {
	// Experiment is an -exp name ("table1" ... "all"); empty means
	// "all".
	Experiment string `json:"experiment,omitempty"`
	// Benchmarks selects workloads by name; empty means all twenty.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// BPred selects and sizes the direction-predictor backend.
	BPred bpred.Spec `json:"bpred"`
	// TimingInsts and ProfileInsts bound each run (0 = library
	// default).
	TimingInsts  uint64 `json:"timing_insts,omitempty"`
	ProfileInsts uint64 `json:"profile_insts,omitempty"`
	// RunTimeoutMS overrides the server's per-benchmark-run budget for
	// this sweep (0 = server default).
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
}

// normalized fills the defaults a handler needs spelled out.
func (sub Submission) normalized() Submission {
	if sub.Experiment == "" {
		sub.Experiment = "all"
	}
	if len(sub.Benchmarks) == 0 {
		sub.Benchmarks = synth.Names()
	}
	return sub
}

// validate rejects unknown experiment, benchmark, and backend names,
// out-of-range predictor sizes, and over-bound instruction budgets before
// the sweep is admitted.
func (sub Submission) validate() error {
	if !exp.ValidExperiment(sub.Experiment) {
		return fmt.Errorf("unknown experiment %q (have %v)", sub.Experiment, exp.ExperimentNames())
	}
	for _, b := range sub.Benchmarks {
		if _, err := synth.ProfileByName(b); err != nil {
			return err
		}
	}
	o := exp.Options{TimingInsts: sub.TimingInsts, ProfileInsts: sub.ProfileInsts, BPred: sub.BPred}
	return o.Validate()
}

// job is one admitted submission travelling from handler to worker; the
// worker sends events (closing the channel when done) and the handler
// streams them to the client.
type job struct {
	sub    Submission
	ctx    context.Context
	events chan event
}

// event is one streamed frame: either a complete NDJSON line or a raw
// byte payload (the framed final document).
type event struct {
	line []byte
	raw  []byte
}

// emit delivers one event unless the job's context is done (client gone
// or sweep timed out), reporting whether it was sent.
func (j *job) emit(ev event) bool {
	select {
	case j.events <- ev:
		return true
	case <-j.ctx.Done():
		return false
	}
}

// jsonLine marshals v as one NDJSON line. Marshalling an event struct
// cannot fail; the fallback keeps the stream well-formed if it ever
// does.
func jsonLine(v any) event {
	b, err := json.Marshal(v)
	if err != nil {
		return errorLine(err.Error())
	}
	return event{line: append(b, '\n')}
}

func errorLine(msg string) event {
	b, _ := json.Marshal(map[string]string{"event": "error", "error": msg})
	return event{line: append(b, '\n')}
}

// Streamed event shapes, in protocol order.
type acceptedEvent struct {
	Event      string   `json:"event"` // "accepted"
	Experiment string   `json:"experiment"`
	Benchmarks []string `json:"benchmarks"`
}

type runEvent struct {
	Event      string `json:"event"` // "run"
	Experiment string `json:"experiment"`
	Bench      string `json:"bench"`
	Index      int    `json:"index"`
	Total      int    `json:"total"`
	// Result is the benchmark's partial document (the same shape the
	// CLI would render for a single-benchmark sweep), compact-encoded.
	Result json.RawMessage `json:"result"`
}

type resultEvent struct {
	Event string `json:"event"` // "result"
	// Bytes is the exact length of the raw final document that follows
	// this line.
	Bytes int `json:"bytes"`
}

type doneEvent struct {
	Event string `json:"event"` // "done"
	Runs  int    `json:"runs"`
}

// Admission outcomes.
var (
	errQueueFull = errors.New("sweep queue full")
	errClosed    = errors.New("server shutting down")
)

// admit enqueues the job without blocking, or reports why it cannot.
func (s *Server) admit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.Rejected++
		return errClosed
	}
	select {
	case s.queue <- j:
		s.stats.Submitted++
		return nil
	default:
		s.stats.Rejected++
		return errQueueFull
	}
}

// count applies one stats mutation under the lock.
func (s *Server) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// handleSweeps is the submission endpoint: decode, validate, admit,
// then stream the worker's events until the sweep finishes.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a sweep submission", http.StatusMethodNotAllowed)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var sub Submission
	if err := dec.Decode(&sub); err != nil {
		http.Error(w, "bad submission: "+err.Error(), http.StatusBadRequest)
		return
	}
	sub = sub.normalized()
	if err := sub.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	ctx := r.Context()
	if s.cfg.SweepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SweepTimeout)
		defer cancel()
	}
	// Server shutdown must cancel the sweep even though it hangs off
	// the request context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()

	j := &job{sub: sub, ctx: ctx, events: make(chan event, 4)}
	if err := s.admit(j); err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		} else {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	flush()
	for ev := range j.events {
		frame := ev.line
		if frame == nil {
			frame = ev.raw
		}
		if _, err := w.Write(frame); err != nil {
			// Client gone: abort the sweep, keep draining so the
			// worker can close the channel.
			cancel()
			continue
		}
		flush()
	}
}

// handleHealthz answers liveness plus queue occupancy.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	status := "ok"
	if closed {
		status = "closing"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":  status,
		"queue":   len(s.queue),
		"workers": s.cfg.Workers,
	})
}

// handleMetrics renders an obs.Registry over the server counters, the
// in-memory cache tier, and (when configured) the disk tier, plus queue
// occupancy gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.NewRegistry()
	reg.AddStruct("serve", s.Stats())
	reg.Add("serve.queue_depth", uint64(len(s.queue)))
	reg.Add("serve.queue_cap", uint64(cap(s.queue)))
	reg.AddStruct("runcache", s.cache.Stats())
	if s.disk != nil {
		reg.AddStruct("dcache", s.disk.Stats())
	}
	w.Header().Set("Content-Type", "application/json")
	_ = report.JSON(w, reg)
}

// testHookJobStart, when non-nil, runs at the top of every job, before
// any event is emitted. Tests use it to hold a worker shard busy so the
// saturation path is deterministic.
var testHookJobStart func(j *job)

// worker is one shard: it executes queued sweeps until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopped:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// jobOptions maps a submission onto the experiment harness, attaching
// the shared cache and the server's scheduling budgets.
func (s *Server) jobOptions(sub Submission) exp.Options {
	o := exp.Options{
		Benchmarks:   sub.Benchmarks,
		TimingInsts:  sub.TimingInsts,
		ProfileInsts: sub.ProfileInsts,
		Parallelism:  s.cfg.Parallelism,
		RunTimeout:   s.cfg.RunTimeout,
		Cache:        s.cache,
		BPred:        sub.BPred,
	}
	if sub.RunTimeoutMS > 0 {
		o.RunTimeout = time.Duration(sub.RunTimeoutMS) * time.Millisecond
	}
	return o
}

// runJob executes one sweep: a partial document per benchmark as it
// retires, then the complete document — rendered by the CLI's exact
// code path over the warm shared cache, so the bytes match a dpbp
// -format json run of the same sweep.
func (s *Server) runJob(j *job) {
	defer close(j.events)
	if h := testHookJobStart; h != nil {
		h(j)
	}
	opts := s.jobOptions(j.sub)
	j.emit(jsonLine(acceptedEvent{
		Event: "accepted", Experiment: j.sub.Experiment, Benchmarks: j.sub.Benchmarks,
	}))
	runs := 0
	for i, bench := range j.sub.Benchmarks {
		per := opts
		per.Benchmarks = []string{bench}
		secs, err := exp.Collect(j.ctx, j.sub.Experiment, per)
		if err != nil {
			s.finishErr(j, err)
			return
		}
		partial, err := json.Marshal(sectionsDoc(secs))
		if err != nil {
			s.finishErr(j, err)
			return
		}
		if !j.emit(jsonLine(runEvent{
			Event: "run", Experiment: j.sub.Experiment, Bench: bench,
			Index: i, Total: len(j.sub.Benchmarks), Result: partial,
		})) {
			s.finishErr(j, j.ctx.Err())
			return
		}
		runs++
		s.count(func(st *Stats) { st.Runs++ })
	}
	secs, err := exp.Collect(j.ctx, j.sub.Experiment, opts)
	if err != nil {
		s.finishErr(j, err)
		return
	}
	var buf bytes.Buffer
	if err := report.RenderSections(&buf, report.FormatJSON, secs); err != nil {
		s.finishErr(j, err)
		return
	}
	if j.ctx.Err() != nil {
		s.finishErr(j, j.ctx.Err())
		return
	}
	j.emit(jsonLine(resultEvent{Event: "result", Bytes: buf.Len()}))
	j.emit(event{raw: buf.Bytes()})
	j.emit(jsonLine(doneEvent{Event: "done", Runs: runs}))
	s.count(func(st *Stats) { st.Completed++ })
}

// finishErr classifies a sweep's failure (cancelled vs failed) and
// tells the client, if it is still listening.
func (s *Server) finishErr(j *job, err error) {
	if j.ctx.Err() != nil {
		s.count(func(st *Stats) { st.Cancelled++ })
	} else {
		s.count(func(st *Stats) { st.Failed++ })
	}
	if err == nil {
		err = j.ctx.Err()
	}
	j.emit(errorLine(err.Error()))
}

// sectionsDoc is the single-document shape of a section list: the bare
// value when exactly one section ran, else a map keyed by section name
// plus an "order" array — the same shape RenderSections encodes.
func sectionsDoc(secs []results.Section) any {
	if len(secs) == 1 {
		return secs[0].Val
	}
	doc := make(map[string]any, len(secs)+1)
	order := make([]string, len(secs))
	for i, sec := range secs {
		doc[sec.Key] = sec.Val
		order[i] = sec.Key
	}
	doc["order"] = order
	return doc
}
