package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dpbp/internal/exp"
	"dpbp/internal/report"
	"dpbp/internal/runcache"
)

// tinySub is a sweep small enough to run in test time.
func tinySub(expName string, benches ...string) Submission {
	return Submission{
		Experiment:   expName,
		Benchmarks:   benches,
		TimingInsts:  60_000,
		ProfileInsts: 60_000,
	}
}

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return s, ts
}

// cliDocument renders the sweep the way cmd/dpbp -format json would:
// exp.Collect with a fresh cache, then RenderSections.
func cliDocument(t *testing.T, sub Submission) []byte {
	t.Helper()
	opts := exp.Options{
		Benchmarks:   sub.Benchmarks,
		TimingInsts:  sub.TimingInsts,
		ProfileInsts: sub.ProfileInsts,
		BPred:        sub.BPred,
		Cache:        runcache.New(),
	}
	secs, err := exp.Collect(context.Background(), sub.Experiment, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.RenderSections(&buf, report.FormatJSON, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitStreamDone drives the happy path end to end: accepted, one
// run event per benchmark (no duplicates), a framed final document
// byte-identical to the CLI's rendering, and a done event.
func TestSubmitStreamDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub := tinySub("table1", "comp", "gcc")
	stream, retries, err := SubmitSweep(context.Background(), ts.Client(), ts.URL, sub)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 0 {
		t.Errorf("unexpected 429 retries: %d", retries)
	}
	if !stream.Complete || stream.Duped {
		t.Fatalf("stream = %+v, want complete and duplicate-free", stream)
	}
	if stream.Runs != 2 {
		t.Errorf("runs = %d, want 2 (one per benchmark)", stream.Runs)
	}
	want := cliDocument(t, sub)
	if !bytes.Equal(stream.Doc, want) {
		t.Errorf("streamed document differs from CLI rendering:\nserver:\n%s\ncli:\n%s", stream.Doc, want)
	}
}

// TestStreamEventOrder checks the raw protocol framing: NDJSON lines in
// order, with the result payload's byte count exact.
func TestStreamEventOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(tinySub("perfect", "comp"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	stream, err := ParseStream(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Complete || stream.Runs != 1 || len(stream.Doc) == 0 {
		t.Fatalf("stream = %+v", stream)
	}
	var doc map[string]any
	if err := json.Unmarshal(stream.Doc, &doc); err != nil {
		t.Fatalf("final document is not JSON: %v", err)
	}
}

// TestCancelMidSweep kills the client connection mid-stream and asserts
// the server classifies the sweep cancelled (not completed or failed).
func TestCancelMidSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	body, err := json.Marshal(tinySub("fig7", "comp", "gcc", "go"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the accepted line, then walk away mid-sweep.
	one := make([]byte, 1)
	if _, err := resp.Body.Read(one); err != nil {
		t.Fatal(err)
	}
	cancel()
	_ = resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Cancelled == 1 {
			if st.Completed != 0 {
				t.Errorf("cancelled sweep also counted completed: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never classified cancelled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSaturation429 holds the single worker shard busy, fills the
// one-deep queue, and asserts the next submission is refused with 429 +
// Retry-After — and that the refused work was shed, not lost: the held
// sweeps still complete.
func TestSaturation429(t *testing.T) {
	release := make(chan struct{})
	held := make(chan struct{}, 1)
	testHookJobStart = func(*job) {
		held <- struct{}{}
		<-release
	}
	defer func() { testHookJobStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	sub := tinySub("perfect", "comp")
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}

	// First submission occupies the worker (the hook holds it); second
	// fills the queue.
	type result struct {
		stream *LoadStream
		err    error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			stream, _, err := SubmitSweep(context.Background(), ts.Client(), ts.URL, sub)
			results <- result{stream, err}
		}()
		if i == 0 {
			<-held // worker is now provably busy
		} else {
			// The second job only occupies the queue once the handler
			// enqueues it; poll the stats until it is admitted.
			for deadline := time.Now().Add(5 * time.Second); ; {
				if s.Stats().Submitted == 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("second submission never admitted")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("held sweep failed: %v", r.err)
		}
		if !r.stream.Complete {
			t.Errorf("held sweep incomplete: %+v", r.stream)
		}
	}
}

// TestWarmHitAcrossRestart submits the same sweep to two servers built
// over one disk directory — a simulated restart — and asserts the second
// serves timing runs from the disk tier and renders the identical bytes.
func TestWarmHitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	sub := tinySub("fig7", "comp")

	s1, ts1 := newTestServer(t, Config{Workers: 1, DiskDir: dir})
	stream1, _, err := SubmitSweep(context.Background(), ts1.Client(), ts1.URL, sub)
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.CacheStats(); st.TierPuts == 0 {
		t.Fatalf("no write-through to the disk tier: %+v", st)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, DiskDir: dir})
	stream2, _, err := SubmitSweep(context.Background(), ts2.Client(), ts2.URL, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream1.Doc, stream2.Doc) {
		t.Errorf("documents differ across restart:\nfirst:\n%s\nsecond:\n%s", stream1.Doc, stream2.Doc)
	}
	if st := s2.CacheStats(); st.TierHits == 0 {
		t.Errorf("restarted server never hit the disk tier: %+v", st)
	}
}

// TestBadSubmission covers the 400/405 surfaces.
func TestBadSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post := func(body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, body string
	}{
		{"bad json", "{"},
		{"unknown field", `{"expriment":"all"}`},
		{"unknown experiment", `{"experiment":"fig42"}`},
		{"unknown benchmark", `{"experiment":"table1","benchmarks":["nope"]}`},
		{"unknown backend", `{"experiment":"table1","bpred":{"name":"oracle9000"}}`},
		// Out-of-range predictor sizes once reached the runs and came
		// back as a 200 carrying divide-by-zero or makeslice RunErrors.
		{"negative tage table", `{"bpred":{"name":"tage","tage":{"table_entries":-5}}}`},
		{"tage min over max history", `{"experiment":"fig6","bpred":{"name":"tage","tage":{"min_history":64,"max_history":8}}}`},
		{"oversized h2p filter", `{"experiment":"fig6","bpred":{"name":"h2p","h2p":{"filter_entries":1073741824}}}`},
		// Over-bound budgets were once admitted and held a worker for as
		// long as they ran.
		{"oversized timing budget", `{"experiment":"fig6","timing_insts":4294967297}`},
		{"oversized profile budget", `{"experiment":"table1","profile_insts":1073741825}`},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, got)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/api/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestHealthzAndMetrics checks the observability surface: healthz shape,
// and /metrics carrying server, cache, and disk counters after traffic.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DiskDir: t.TempDir()})
	if _, _, err := SubmitSweep(context.Background(), ts.Client(), ts.URL, tinySub("perfect", "comp")); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if health.Status != "ok" || health.Workers != 1 {
		t.Errorf("healthz = %+v", health)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"serve.submitted", "serve.completed", "serve.runs", "runcache.lookups", "runcache.computes", "dcache.puts"} {
		if doc.Counters[key] == 0 {
			t.Errorf("metrics counter %q is zero after a completed sweep (have %v)", key, nonZeroKeys(doc.Counters))
		}
	}
	if _, ok := doc.Counters["serve.queue_cap"]; !ok {
		t.Error("metrics missing serve.queue_cap gauge")
	}
}

// TestLoadSwarm runs a small in-process swarm through the public loadgen
// and asserts nothing is dropped or duplicated and the warm traffic
// lands in the cache.
func TestLoadSwarm(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	warm := tinySub("perfect", "comp")
	cold := []Submission{tinySub("perfect", "gcc"), tinySub("perfect", "go")}
	res, err := RunLoad(context.Background(), LoadOptions{
		URL: ts.URL, Clients: 4, Requests: 3,
		Warm: warm, Cold: cold, ColdEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("swarm failed sweeps: %+v", res)
	}
	if want := 4 * 3; res.Completed != want {
		t.Errorf("completed = %d, want %d", res.Completed, want)
	}
	if res.Runs != res.Completed { // every submission here is single-benchmark
		t.Errorf("runs = %d, want %d (zero dropped/duplicated)", res.Runs, res.Completed)
	}
	if res.CacheHitRate == 0 {
		t.Error("warm swarm recorded zero cache hit rate")
	}
}

// TestEvictionBoundedServer runs distinct sweeps through a tiny cache
// bound and checks the cache obeyed it (evictions happened, length
// bounded) while every sweep still completed correctly.
func TestEvictionBoundedServer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 4})
	for _, bench := range []string{"comp", "gcc", "go"} {
		stream, _, err := SubmitSweep(context.Background(), ts.Client(), ts.URL, tinySub("perfect", bench))
		if err != nil {
			t.Fatal(err)
		}
		if !stream.Complete {
			t.Fatalf("sweep %s incomplete", bench)
		}
	}
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("tiny cache bound never evicted: %+v", st)
	}
}

func nonZeroKeys(m map[string]uint64) []string {
	var out []string
	for k, v := range m {
		if v != 0 {
			out = append(out, k)
		}
	}
	return out
}
