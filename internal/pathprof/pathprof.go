// Package pathprof is the offline path profiler behind Tables 1 and 2 of
// the paper: it runs a program functionally against the baseline hardware
// predictor, classifies every control-flow path and static branch by
// misprediction rate, and reports unique-path counts, average scopes,
// difficult-path counts, and misprediction/execution coverages.
//
// Unlike the run-time Path Cache, the profiler uses unbounded tables: the
// paper's Tables 1 and 2 characterise the workloads themselves, not the
// hardware's ability to track them.
package pathprof

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/path"
	"dpbp/internal/program"
)

// branchStats aggregates one static branch. Its counts share the uint32
// width, and the MaxBudget bound, of pathStats'.
type branchStats struct {
	executions  uint32
	mispredicts uint32
}

// NProfile holds per-n aggregates. It retains only what Table1, Table2
// and DifficultPathIDs read: the unique-path count, integer sums over all
// paths, and the paths that mispredicted at least once.
type NProfile struct {
	N        int
	unique   int         // unique paths seen
	scopeSum int64       // sum of every unique path's scope
	occ      uint64      // occurrences summed over all paths
	miss     uint64      // mispredictions summed over all paths
	missed   []pathEntry // paths with miss > 0, in table order
}

// Profile is the result of one profiling run.
type Profile struct {
	Benchmark string
	// Insts is the number of dynamic instructions profiled.
	Insts uint64
	// Branches is the number of dynamic terminating-branch executions.
	Branches uint64
	// Mispredicts is the number of those the baseline mispredicted.
	Mispredicts uint64
	// ByN holds the per-path aggregates for each requested path length.
	ByN []*NProfile
	// uniqueBranches counts the static terminating branches executed.
	uniqueBranches int
	// branches holds the static branches that mispredicted at least once.
	branches []branchStats
}

// MaxBudget bounds Config.MaxInsts. It keeps every per-path and
// per-branch count below 2^32, which is what lets the accumulation tables
// use uint32 counters.
const MaxBudget = 1 << 30

// MaxN bounds each path length in Config.Ns.
const MaxN = 64

// Config controls a profiling run.
type Config struct {
	// Ns lists the path lengths to classify simultaneously
	// (the paper uses 4, 10, 16).
	Ns []int
	// MaxInsts bounds the functional run.
	MaxInsts uint64
	// Predictor sizes the baseline predictor; zero value means Table 3
	// defaults.
	Predictor bpred.Config
}

// DefaultConfig profiles n = 4, 10, 16 over 2M instructions.
func DefaultConfig() Config {
	return Config{Ns: []int{4, 10, 16}, MaxInsts: 2_000_000, Predictor: bpred.DefaultConfig()}
}

// Validate rejects path lengths outside [1, MaxN] and budgets above
// MaxBudget. Zero fields are valid: Canonical fills them.
func (c Config) Validate() error {
	for _, n := range c.Ns {
		if n < 1 || n > MaxN {
			return fmt.Errorf("pathprof: path length %d out of range [1, %d]", n, MaxN)
		}
	}
	if c.MaxInsts > MaxBudget {
		return fmt.Errorf("pathprof: instruction budget %d exceeds the maximum %d", c.MaxInsts, MaxBudget)
	}
	return nil
}

// Canonical returns the configuration with every zero field replaced by
// its default — the configuration Run actually uses. Configs that
// canonicalize equal produce identical profiles, so Canonical is the
// content-addressed cache key input for profiling runs.
func (c Config) Canonical() Config {
	d := DefaultConfig()
	if len(c.Ns) == 0 {
		c.Ns = d.Ns
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = d.MaxInsts
	}
	if c.Predictor.PHTEntries == 0 {
		c.Predictor = d.Predictor
	}
	return c
}

// Run profiles prog under cfg, simulating the baseline predictor
// against a fresh functional run. It panics if cfg is invalid.
func Run(prog *program.Program, cfg Config) *Profile {
	p, err := RunContext(context.Background(), prog, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// ctxCheckInterval is how many instructions pass between context polls.
const ctxCheckInterval = 4096

// RunContext is Run under a context: it validates cfg, then polls ctx
// every ctxCheckInterval instructions and abandons the run with ctx's
// error once it is done.
func RunContext(ctx context.Context, prog *program.Program, cfg Config) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A scope spans at most n regions of at most len(prog.Code)
	// instructions each; pathStats stores it as an int32.
	if uint64(len(prog.Code))*MaxN > math.MaxInt32 {
		return nil, fmt.Errorf("pathprof: program %q too large to profile (%d instructions)", prog.Name, len(prog.Code))
	}
	cfg = cfg.Canonical()
	dec := prog.Decoded()
	branches := make([]branchStats, len(prog.Code))
	tables := make([]path.Map[pathStats], len(cfg.Ns))
	trackers := make([]*path.Tracker, len(cfg.Ns))
	for i, n := range cfg.Ns {
		trackers[i] = path.NewTracker(n)
	}
	pred := bpred.New(cfg.Predictor)
	m := emu.New(prog)
	// The loop steps the emulator itself rather than through a visitor
	// callback, so its counters stay in registers.
	var r emu.Record
	var insts, nBranches, nMispredicts uint64
	for insts < cfg.MaxInsts && m.Step(&r) {
		insts++
		if r.Seq%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Any control transfer trains the predictor; a terminating
		// branch also ends a path.
		d := &dec[r.PC]
		if !d.Branch {
			continue
		}
		guess := pred.Predict(r.PC, r.Inst)
		miss := pred.Update(r.PC, r.Inst, guess, r.Taken, r.NextPC)
		if d.Term {
			nBranches++
			bs := &branches[r.PC]
			bs.executions++
			if miss {
				nMispredicts++
				bs.mispredicts++
			}
			for i, tr := range trackers {
				if !tr.Full() {
					continue
				}
				e := tables[i].Put(tr.ID(r.PC))
				if e.occ == 0 {
					e.scope = int32(tr.Scope(r.PC))
				}
				e.occ++
				if miss {
					e.miss++
				}
			}
		}
		if r.Taken {
			for _, tr := range trackers {
				tr.Observe(path.TakenBranch{PC: r.PC, Target: r.NextPC, Seq: r.Seq})
			}
		}
	}
	p := &Profile{Benchmark: prog.Name, Insts: insts, Branches: nBranches, Mispredicts: nMispredicts}
	p.ByN = make([]*NProfile, len(tables))
	for i := range tables {
		p.ByN[i] = retain(&tables[i], cfg.Ns[i])
	}
	p.retainBranches(branches)
	return p, nil
}

// retainBranches keeps the executed-branch count and an exact-length copy
// of the static branches that mispredicted at least once.
func (p *Profile) retainBranches(all []branchStats) {
	missed := 0
	for _, bs := range all {
		if bs.executions > 0 {
			p.uniqueBranches++
		}
		if bs.mispredicts > 0 {
			missed++
		}
	}
	p.branches = make([]branchStats, 0, missed)
	for _, bs := range all {
		if bs.mispredicts > 0 {
			p.branches = append(p.branches, bs)
		}
	}
}

// Table1Row is one benchmark's slice of Table 1 for a single n.
type Table1Row struct {
	N           int
	UniquePaths int
	AvgScope    float64
	DifficultAt map[float64]int // threshold T -> number of difficult paths
}

// Table1 computes unique-path counts, average scope, and difficult-path
// counts at each threshold.
func (p *Profile) Table1(thresholds []float64) []Table1Row {
	rows := make([]Table1Row, 0, len(p.ByN))
	for _, np := range p.ByN {
		row := Table1Row{N: np.N, UniquePaths: np.unique, DifficultAt: map[float64]int{}}
		for _, T := range thresholds {
			// A threshold no path exceeds stays absent from the map.
			if c, _, _ := np.difficultAt(T); c > 0 {
				row.DifficultAt[T] += c
			}
		}
		if np.unique > 0 {
			// The scope sum is exact in float64 (far below 2^53), so
			// this equals summing the scopes as floats in any order.
			row.AvgScope = float64(np.scopeSum) / float64(np.unique)
		}
		rows = append(rows, row)
	}
	return rows
}

// difficultAt returns how many of np's paths are difficult at T, and
// their mispredictions and occurrences summed.
func (np *NProfile) difficultAt(T float64) (paths int, miss, exe uint64) {
	if T < 0 {
		return np.unique, np.miss, np.occ // every seen path's rate exceeds T
	}
	for _, e := range np.missed {
		if difficult(uint64(e.miss), uint64(e.occ), T) {
			paths++
			miss += uint64(e.miss)
			exe += uint64(e.occ)
		}
	}
	return paths, miss, exe
}

// Coverage is a (misprediction %, execution %) pair for one classifier.
type Coverage struct {
	MisPct float64
	ExePct float64
}

// Table2Row is one benchmark's coverage at one threshold: difficult
// branches and difficult paths for each n.
type Table2Row struct {
	T      float64
	Branch Coverage
	ByN    map[int]Coverage
}

// Table2 computes misprediction/execution coverage for difficult branches
// and difficult paths at each threshold.
func (p *Profile) Table2(thresholds []float64) []Table2Row {
	rows := make([]Table2Row, 0, len(thresholds))
	for _, T := range thresholds {
		row := Table2Row{T: T, ByN: map[int]Coverage{}}

		bMiss, bExe := p.Mispredicts, p.Branches // every branch is difficult at T < 0
		if T >= 0 {
			bMiss, bExe = 0, 0
			for _, bs := range p.branches {
				if difficult(uint64(bs.mispredicts), uint64(bs.executions), T) {
					bMiss += uint64(bs.mispredicts)
					bExe += uint64(bs.executions)
				}
			}
		}
		row.Branch = p.coverage(bMiss, bExe)

		for _, np := range p.ByN {
			_, miss, exe := np.difficultAt(T)
			row.ByN[np.N] = p.coverage(miss, exe)
		}
		rows = append(rows, row)
	}
	return rows
}

func (p *Profile) coverage(miss, exe uint64) Coverage {
	c := Coverage{}
	if p.Mispredicts > 0 {
		c.MisPct = 100 * float64(miss) / float64(p.Mispredicts)
	}
	if p.Branches > 0 {
		c.ExePct = 100 * float64(exe) / float64(p.Branches)
	}
	return c
}

// DifficultPathIDs returns the Path_Ids of the difficult paths for path
// length n at threshold T, ordered by descending misprediction count and
// truncated to limit (0 means no limit). It feeds the profile-guided
// promotion mode: the timing machine can pre-promote these paths instead
// of discovering them through Path Cache training. The profile keeps only
// paths that mispredicted at least once, so a negative T returns those
// rather than every path.
func (p *Profile) DifficultPathIDs(n int, T float64, limit int) []uint64 {
	var np *NProfile
	for _, cand := range p.ByN {
		if cand.N == n {
			np = cand
			break
		}
	}
	if np == nil {
		return nil
	}
	var all []pathEntry
	for _, e := range np.missed {
		if difficult(uint64(e.miss), uint64(e.occ), T) {
			all = append(all, e)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].miss != all[j].miss {
			return all[i].miss > all[j].miss
		}
		return all[i].id < all[j].id // deterministic tiebreak
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := make([]uint64, len(all))
	for i, s := range all {
		out[i] = uint64(s.id)
	}
	return out
}

// MispredictRate returns the baseline's terminating-branch misprediction
// rate for the run.
func (p *Profile) MispredictRate() float64 {
	if p.Branches == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Branches)
}

// UniqueBranches returns the number of static terminating branches
// executed.
func (p *Profile) UniqueBranches() int { return p.uniqueBranches }

// difficult implements the paper's definition: misprediction rate
// strictly greater than T. Paths must have been seen at least once.
func difficult(miss, occ uint64, T float64) bool {
	return occ > 0 && float64(miss)/float64(occ) > T
}

// String renders a compact summary.
func (p *Profile) String() string {
	return fmt.Sprintf("%s: %d insts, %d branches, %.2f%% mispredicted, %d static branches",
		p.Benchmark, p.Insts, p.Branches, 100*p.MispredictRate(), p.uniqueBranches)
}
