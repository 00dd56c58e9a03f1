package replay_test

import (
	"sync"
	"testing"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/oracle"
	"dpbp/internal/replay"
	"dpbp/internal/synth"
)

// branchSummary is what a run's retirement stream and hardware
// predictor decide, independent of every timing switch: the records
// retired, the terminating branches among them, how many of those the
// hardware predictor missed, and its final statistics.
type branchSummary struct {
	Insts         uint64
	Branches      uint64
	HWMispredicts uint64
	PredStats     bpred.Stats
	Backend       bpred.BackendStats
}

// liveSummary extracts the branch summary from a live timing Result.
func liveSummary(r *cpu.Result) branchSummary {
	return branchSummary{r.Insts, r.Branches, r.HWMispredicts, r.PredStats, r.Backend}
}

// replaySummary walks the tape through a cursor with ov attached,
// pairing each retired branch with the overlay's recorded prediction
// exactly as the timing core pairs it with Predict/Update.
func replaySummary(tape *replay.Tape, ov *replay.Overlay, budget uint64) (branchSummary, bool) {
	c := tape.Cursor()
	defer tape.Release(c)
	if !c.WithOverlay(ov, budget) {
		return branchSummary{}, false
	}
	var s branchSummary
	var rec emu.Record
	for s.Insts < budget && c.Next(&rec) {
		s.Insts++
		if !rec.Inst.IsBranch() {
			continue
		}
		_, miss := c.NextPrediction()
		if rec.Inst.IsTerminatingBranch() {
			s.Branches++
			if miss {
				s.HWMispredicts++
			}
		}
	}
	s.PredStats, s.Backend = c.FinalPredStats()
	return s, true
}

// TestReplayMatchesLive is the replay-equivalence gate for the recorded
// layer the benchmark's probes read: for every ablation in the oracle
// sweep — baseline, the full microthread mechanism, its pruning/abort/
// wrong-path/throttle variants, the perfect-promoted mode, and the
// alternate predictor backends — the tape and its prediction overlay
// must retire the same records, and the hardware predictor must decide
// every terminating branch and end with the same statistics, as a live
// timing run driven by its own emulator and predictor.
func TestReplayMatchesLive(t *testing.T) {
	const budget = 30_000
	progs := []string{synth.Names()[0], synth.Names()[3]}
	for _, name := range progs {
		prog := benchProg(t, name)
		tape := replay.Record(prog, budget)
		for _, nc := range oracle.Ablations() {
			nc := nc
			t.Run(name+"/"+nc.Name, func(t *testing.T) {
				cfg := nc.Config
				cfg.MaxInsts = budget

				live := liveSummary(cpu.Run(prog, cfg))

				canon := cfg.Canonical()
				ov, err := replay.NewOverlay(tape, canon.Predictor, canon.BPred, []uint64{budget})
				if err != nil {
					t.Fatalf("NewOverlay: %v", err)
				}
				replayed, ok := replaySummary(tape, ov, budget)
				if !ok {
					t.Fatal("WithOverlay rejected the run budget")
				}
				if live.Branches == 0 {
					t.Fatal("live run retired no terminating branches; the comparison is vacuous")
				}
				if live != replayed {
					t.Fatalf("replayed summary differs from live:\nlive:   %+v\nreplay: %+v", live, replayed)
				}
			})
		}
	}
}

// TestConcurrentReplaySharesTape replays one tape and overlay from many
// goroutines at once — the sharing pattern the tape's lazy resolve and
// cursor pool are built for — and requires every replay to match the
// live run. Under -race this is the soundness check for that sharing.
func TestConcurrentReplaySharesTape(t *testing.T) {
	const budget = 10_000
	prog := benchProg(t, synth.Names()[4])
	cfg := cpu.Config{Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
		AbortEnabled: true, RebuildOnViolation: true, MaxInsts: budget}
	want := liveSummary(cpu.Run(prog, cfg))

	tape := replay.Record(prog, budget)
	canon := cfg.Canonical()
	ov, err := replay.NewOverlay(tape, canon.Predictor, canon.BPred, []uint64{budget})
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, ok := replaySummary(tape, ov, budget)
			if !ok {
				errs <- "WithOverlay rejected the run budget"
				return
			}
			if got != want {
				errs <- "concurrent replay diverged from live run"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
