package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dpbp/internal/exp"
	"dpbp/internal/runcache"
)

// rawSweep posts sub and returns the whole response body: the exact
// bytes a client receives.
func rawSweep(t *testing.T, ts *httptest.Server, sub Submission) []byte {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// parseRaw parses a raw stream, failing unless it is complete.
func parseRaw(t *testing.T, raw []byte) *LoadStream {
	t.Helper()
	stream, err := ParseStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Complete || stream.Duped {
		t.Fatalf("stream = %+v, want complete and duplicate-free", stream)
	}
	return stream
}

// TestRunLineMatchesMarshal checks that splicing the partial document
// into its run line produces the bytes json.Marshal of the whole event,
// with the document as a json.RawMessage, produced — for every
// experiment's partial document.
func TestRunLineMatchesMarshal(t *testing.T) {
	type wholeRunEvent struct {
		Event      string          `json:"event"`
		Experiment string          `json:"experiment"`
		Bench      string          `json:"bench"`
		Index      int             `json:"index"`
		Total      int             `json:"total"`
		Result     json.RawMessage `json:"result"`
	}
	opts := exp.Options{Benchmarks: []string{"comp"}, TimingInsts: 5_000, ProfileInsts: 5_000, Cache: runcache.New()}
	for _, name := range exp.ExperimentNames() {
		secs, err := exp.Collect(context.Background(), name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		partial, err := json.Marshal(sectionsDoc(secs))
		if err != nil {
			t.Fatal(err)
		}
		ev := runEvent{Event: "run", Experiment: name, Bench: "comp", Index: 2, Total: 3}
		want, err := json.Marshal(wholeRunEvent{ev.Event, ev.Experiment, ev.Bench, ev.Index, ev.Total, partial})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendRunLine([]byte("prefix"), ev, partial); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%s run line differs from json.Marshal:\ngot  %s\nwant %s", name, got, want)
		}
	}
}

// TestWarmStreamByteIdentical checks that a repeat is served from the
// memo with one cache lookup, and that every byte a client receives is
// the same as the first, computed stream's.
func TestWarmStreamByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sub := tinySub("fig7", "comp", "gcc")
	cold := rawSweep(t, ts, sub)
	before := s.CacheStats()
	warm := rawSweep(t, ts, sub)
	after := s.CacheStats()

	if !bytes.Equal(warm, cold) {
		t.Errorf("warm stream differs from the cold one:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if doc := parseRaw(t, warm).Doc; !bytes.Equal(doc, cliDocument(t, sub)) {
		t.Error("warm document differs from the CLI rendering")
	}
	st := s.Stats()
	if st.MemoHits != 1 || st.Completed != 2 || st.Runs != 4 {
		t.Errorf("stats = %+v, want 1 memo hit, 2 completed, 4 runs", st)
	}
	if lookups, hits := after.Lookups-before.Lookups, after.Hits-before.Hits; lookups != 1 || hits != 1 {
		t.Errorf("warm sweep made %d lookups, %d hits; want one memo hit", lookups, hits)
	}
}

// TestMemoSkipsRunErrors seeds run errors with a tiny per-run timeout
// and checks that the sweep still streams, but leaves no memo: the next
// submission (the timeout is not part of the key) computes the clean
// sweep, and only the one after that is a memo hit.
func TestMemoSkipsRunErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sub := tinySub("fig7", "comp")
	timedOut := sub
	timedOut.RunTimeoutMS = 1
	if doc := parseRaw(t, rawSweep(t, ts, timedOut)).Doc; !bytes.Contains(doc, []byte(`"errors"`)) {
		t.Fatalf("a 1ms run timeout left no run errors to test with:\n%s", doc)
	}
	clean := parseRaw(t, rawSweep(t, ts, sub)).Doc
	if st := s.Stats(); st.MemoHits != 0 {
		t.Fatalf("sweep with run errors was memoized: %+v", st)
	}
	if !bytes.Equal(clean, cliDocument(t, sub)) {
		t.Error("clean sweep after a failed one differs from the CLI rendering")
	}
	if warm := parseRaw(t, rawSweep(t, ts, sub)).Doc; !bytes.Equal(warm, clean) {
		t.Error("memoized document differs from the clean sweep's")
	}
	if st := s.Stats(); st.MemoHits != 1 || st.Completed != 3 {
		t.Errorf("stats = %+v, want the third sweep a memo hit", st)
	}
}

// TestConcurrentIdenticalComputeOnce holds both workers until each has
// an identical submission, then checks the sweep was computed once —
// as many run-cache computes as a lone sweep needs — and that both
// clients received the same bytes.
func TestConcurrentIdenticalComputeOnce(t *testing.T) {
	sub := tinySub("fig7", "comp", "gcc")

	lone, lts := newTestServer(t, Config{Workers: 1})
	want := rawSweep(t, lts, sub)
	wantComputes := lone.CacheStats().Computes

	var started sync.WaitGroup
	started.Add(2)
	testHookJobStart = func(*job) {
		started.Done()
		started.Wait()
	}
	defer func() { testHookJobStart = nil }()
	s, ts := newTestServer(t, Config{Workers: 2})
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if streams[i], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for i, got := range streams {
		if !bytes.Equal(got, want) {
			t.Errorf("stream %d differs from a lone sweep's:\n%s", i, got)
		}
	}
	if got := s.CacheStats().Computes; got != wantComputes {
		t.Errorf("two identical submissions made %d computes, a lone sweep %d", got, wantComputes)
	}
	if st := s.Stats(); st.MemoHits != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v, want one computed sweep and one memo hit", st)
	}
}

// TestMemoNotPersisted checks that the disk tier's codec declines a
// memo, and that the cache's size bound sees its bytes.
func TestMemoNotPersisted(t *testing.T) {
	m := sweepMemo(strings.Repeat("x", 10_000))
	if _, ok := ResultCodec().Marshal(m); ok {
		t.Error("ResultCodec encoded a sweep memo")
	}
	if got := approxSize(m); got < 10_000 {
		t.Errorf("approxSize(memo of 10000 bytes) = %d", got)
	}
}
