package pathprof

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/path"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

// refProfile is the profiler's reference model: the straightforward
// accumulator over pointer maps that the flat tables replaced, keeping
// every path of every length. It re-decodes each record and keeps full
// per-path state, so each aggregate the compact Profile serves can be
// recomputed from first principles.
type refProfile struct {
	insts, branches, mispredicts uint64
	ns                           []int
	paths                        []map[path.ID]*refStats
	statics                      map[isa.Addr]*refStats
}

type refStats struct {
	occ, miss uint64
	scope     int
}

func refRun(prog *program.Program, cfg Config) *refProfile {
	cfg = cfg.Canonical()
	p := &refProfile{ns: cfg.Ns, statics: map[isa.Addr]*refStats{}}
	trackers := make([]*path.Tracker, len(cfg.Ns))
	for i, n := range cfg.Ns {
		p.paths = append(p.paths, map[path.ID]*refStats{})
		trackers[i] = path.NewTracker(n)
	}
	pred := bpred.New(cfg.Predictor)
	m := emu.New(prog)
	p.insts = m.Run(cfg.MaxInsts, func(r *emu.Record) bool {
		if !r.Inst.IsBranch() {
			return true
		}
		guess := pred.Predict(r.PC, r.Inst)
		miss := pred.Update(r.PC, r.Inst, guess, r.Taken, r.NextPC)
		if r.Inst.IsTerminatingBranch() {
			p.branches++
			if miss {
				p.mispredicts++
			}
			bump(p.statics, r.PC, miss, 0)
			for i, tr := range trackers {
				if tr.Full() {
					bump(p.paths[i], tr.ID(r.PC), miss, tr.Scope(r.PC))
				}
			}
		}
		if r.Taken {
			for _, tr := range trackers {
				tr.Observe(path.TakenBranch{PC: r.PC, Target: r.NextPC, Seq: r.Seq})
			}
		}
		return true
	})
	return p
}

func bump[K comparable](m map[K]*refStats, k K, miss bool, scope int) {
	s := m[k]
	if s == nil {
		s = &refStats{scope: scope}
		m[k] = s
	}
	s.occ++
	if miss {
		s.miss++
	}
}

// sortedStats returns m's values in key order, so float sums over them
// do not depend on map iteration order.
func sortedStats[K interface{ ~uint64 }](m map[K]*refStats) []*refStats {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]*refStats, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func (p *refProfile) coverage(miss, exe uint64) Coverage {
	c := Coverage{}
	if p.mispredicts > 0 {
		c.MisPct = 100 * float64(miss) / float64(p.mispredicts)
	}
	if p.branches > 0 {
		c.ExePct = 100 * float64(exe) / float64(p.branches)
	}
	return c
}

func (p *refProfile) table1(thresholds []float64) []Table1Row {
	var rows []Table1Row
	for i, n := range p.ns {
		stats := sortedStats(p.paths[i])
		row := Table1Row{N: n, UniquePaths: len(stats), DifficultAt: map[float64]int{}}
		var scopeSum float64
		for _, s := range stats {
			scopeSum += float64(s.scope)
			for _, T := range thresholds {
				if difficult(s.miss, s.occ, T) {
					row.DifficultAt[T]++
				}
			}
		}
		if len(stats) > 0 {
			row.AvgScope = scopeSum / float64(len(stats))
		}
		rows = append(rows, row)
	}
	return rows
}

func difficultSum(stats []*refStats, T float64) (miss, exe uint64) {
	for _, s := range stats {
		if difficult(s.miss, s.occ, T) {
			miss += s.miss
			exe += s.occ
		}
	}
	return miss, exe
}

func (p *refProfile) table2(thresholds []float64) []Table2Row {
	var rows []Table2Row
	for _, T := range thresholds {
		row := Table2Row{T: T, ByN: map[int]Coverage{}}
		row.Branch = p.coverage(difficultSum(sortedStats(p.statics), T))
		for i, n := range p.ns {
			row.ByN[n] = p.coverage(difficultSum(sortedStats(p.paths[i]), T))
		}
		rows = append(rows, row)
	}
	return rows
}

func (p *refProfile) difficultPathIDs(i int, T float64) []uint64 {
	var ids []path.ID
	for id, s := range p.paths[i] {
		if difficult(s.miss, s.occ, T) {
			ids = append(ids, id)
		}
	}
	m := p.paths[i]
	sort.Slice(ids, func(a, b int) bool {
		if m[ids[a]].miss != m[ids[b]].miss {
			return m[ids[a]].miss > m[ids[b]].miss
		}
		return ids[a] < ids[b]
	})
	out := make([]uint64, len(ids))
	for k, id := range ids {
		out[k] = uint64(id)
	}
	return out
}

// refThresholds covers the paper's thresholds, T = 0 (any misprediction)
// and a negative T (every path).
var refThresholds = []float64{-1, 0, 0.05, 0.10, 0.15}

// checkAgainstReference asserts that every aggregate of the compact
// profile equals the reference model's.
func checkAgainstReference(t *testing.T, prog *program.Program, cfg Config) {
	t.Helper()
	got, want := Run(prog, cfg), refRun(prog, cfg)
	if got.Insts != want.insts || got.Branches != want.branches || got.Mispredicts != want.mispredicts {
		t.Errorf("%s: counts %d/%d/%d, want %d/%d/%d", prog.Name,
			got.Insts, got.Branches, got.Mispredicts, want.insts, want.branches, want.mispredicts)
	}
	if got.UniqueBranches() != len(want.statics) {
		t.Errorf("%s: UniqueBranches %d, want %d", prog.Name, got.UniqueBranches(), len(want.statics))
	}
	if g, w := got.Table1(refThresholds), want.table1(refThresholds); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: Table1\n got %+v\nwant %+v", prog.Name, g, w)
	}
	if g, w := got.Table2(refThresholds), want.table2(refThresholds); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: Table2\n got %+v\nwant %+v", prog.Name, g, w)
	}
	for i, n := range want.ns {
		for _, T := range refThresholds[1:] {
			g, w := got.DifficultPathIDs(n, T, 0), want.difficultPathIDs(i, T)
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: DifficultPathIDs(%d, %v): %d ids, want %d (or order differs)", prog.Name, n, T, len(g), len(w))
			}
		}
	}
}

// TestMatchesReferenceModel checks the flat-table profiler against the
// map-based reference on every benchmark.
func TestMatchesReferenceModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 100_000
	for _, name := range synth.Names() {
		p, err := synth.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, synth.Generate(p), cfg)
	}
}

// TestMatchesReferenceModelRandom extends the comparison to random
// programs, with path lengths from 1 to MaxN.
func TestMatchesReferenceModelRandom(t *testing.T) {
	cfg := Config{Ns: []int{1, 3, 8, 33, MaxN}, MaxInsts: 100_000}
	for seed := int64(1); seed <= 6; seed++ {
		checkAgainstReference(t, synth.Random(seed, 6), cfg)
	}
}

// TestPathTableGrowth upserts across several doublings of a path length's
// table and checks that no entry is lost, no count changes, and retain
// keeps exactly the paths that mispredicted.
func TestPathTableGrowth(t *testing.T) {
	var tab path.Map[pathStats]
	const n = 20 << 10
	for round := uint32(1); round <= 3; round++ {
		for k := 0; k < n; k++ {
			e := tab.Put(path.ID(k) * 0x100000001) // spread and collide in the low bits
			if e.occ == 0 {
				e.scope = int32(k)
			}
			e.occ++
			e.miss += uint32(k % 2)
		}
		if tab.Len() != n {
			t.Fatalf("round %d: %d live entries, want %d", round, tab.Len(), n)
		}
		for k := 0; k < n; k++ {
			e := tab.Find(path.ID(k) * 0x100000001)
			if e == nil || e.occ != round || e.miss != round*uint32(k%2) || e.scope != int32(k) {
				t.Fatalf("round %d: key %d = %+v", round, k, e)
			}
		}
	}
	np := retain(&tab, 4)
	if np.unique != n || len(np.missed) != n/2 || cap(np.missed) != n/2 {
		t.Errorf("retained %d unique, %d missed (cap %d); want %d, %d", np.unique, len(np.missed), cap(np.missed), n, n/2)
	}
	for _, e := range np.missed {
		if e.miss != 3 || e.scope != int32(e.id/0x100000001) {
			t.Fatalf("retained %+v", e)
		}
	}
}

// TestProfileAllocs bounds the heap objects of one profile. A map-based
// accumulator allocated one object per path (116,932 for gcc at 1M
// instructions); the flat tables allocate a few per path length.
func TestProfileAllocs(t *testing.T) {
	sp, err := synth.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(sp)
	cfg := DefaultConfig()
	cfg.MaxInsts = 1_000_000
	allocs := testing.AllocsPerRun(1, func() { Run(prog, cfg) })
	if allocs > 256 {
		t.Errorf("gcc 1M profile: %.0f allocations, want <= 256", allocs)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{
		{Ns: []int{0}},
		{Ns: []int{4, -1}},
		{Ns: []int{MaxN + 1}},
		{MaxInsts: MaxBudget + 1},
	} {
		if c.Validate() == nil {
			t.Errorf("%+v: accepted", c)
		}
		if _, err := RunContext(context.Background(), synth.Random(1, 2), c); err == nil {
			t.Errorf("%+v: RunContext accepted", c)
		}
	}
	for _, c := range []Config{{}, DefaultConfig(), {Ns: []int{1, MaxN}, MaxInsts: MaxBudget}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

// TestRunContextCancelled checks that a done context stops a run with
// the context's error.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp, _ := synth.ProfileByName("comp")
	p, err := RunContext(ctx, synth.Generate(sp), DefaultConfig())
	if p != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("got (%v, %v), want (nil, context.Canceled)", p, err)
	}
}
