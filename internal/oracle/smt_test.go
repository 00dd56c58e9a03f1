package oracle

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

// smtSmokeCfg sweeps the sharing/policy matrix deterministically: the
// seed picks fetch policy and sharing bits so the 32-seed suite covers
// every sharing flag under both arbiters.
func smtSmokeCfg(seed int64) cpu.Config {
	cfg := Ablations()[1].Config // full microthread mechanism
	cfg.SMT = smtConfigFromBits(uint64(seed)%31 + 1)
	return cfg
}

// TestOracleSMTSmoke is the SMT arm of the deterministic suite: pairs of
// seeded random programs co-scheduled under a rotating sharing/policy
// matrix must each retire their solo reference stream bit for bit, end
// in their reference architectural state, and satisfy every SMT
// conservation law and trace reconciliation.
func TestOracleSMTSmoke(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		a := synth.RandSpec{Seed: seed, Units: 5}
		b := synth.RandSpec{Seed: seed + 1000, Units: 5}
		if err := verifySMTSpecs(a, b, smtSmokeCfg(seed), Options{MaxInsts: 8_000, Trace: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestOracleSMTOneContextBridge drives VerifySMT's built-in bridge law:
// a 1-context SMT run of a fixed-profile program must be bit-identical
// to the solo machine (checked inside VerifySMT when k == 1).
func TestOracleSMTOneContextBridge(t *testing.T) {
	for _, policy := range []cpu.FetchPolicy{cpu.FetchRoundRobin, cpu.FetchICount} {
		cfg := Ablations()[1].Config
		cfg.SMT = cpu.SMTConfig{
			Contexts:    []cpu.WorkloadRef{{Bench: "gcc"}},
			FetchPolicy: policy,
		}
		p, err := synth.ProfileByName("gcc")
		if err != nil {
			t.Fatal(err)
		}
		progs := []*program.Program{synth.Generate(p)}
		if err := VerifySMT(progs, cfg, Options{MaxInsts: 12_000}); err != nil {
			t.Errorf("%v: %v", policy, err)
		}
	}
}

// TestVerifySMTDetectsInjectedFault is the SMT mutation test: a flipped
// Taken bit in one context's stream must surface as a stream divergence
// attributed to that context, and the shrinker must reduce the failing
// pair to a minimal one — each context's spec shrunk while holding the
// other fixed.
func TestVerifySMTDetectsInjectedFault(t *testing.T) {
	cfg := Ablations()[1].Config
	cfg.SMT = smtConfigFromBits(30) // rr, everything shared: the worst case
	opts := Options{MaxInsts: 8_000, Fault: &Fault{Ctx: 1, Seq: 3_000}}
	a := synth.RandSpec{Seed: 7, Units: 6}
	b := synth.RandSpec{Seed: 8, Units: 6}

	err := verifySMTSpecs(a, b, cfg, opts)
	div, ok := err.(*Divergence)
	if !ok || div.Kind != "stream" || div.Seq != 3_000 {
		t.Fatalf("expected a stream divergence at seq 3000, got %v", err)
	}
	if !strings.Contains(div.Config, "ctx1") {
		t.Errorf("divergence not attributed to the faulted context: %v", div)
	}
	if !strings.Contains(div.Detail, "taken") {
		t.Errorf("divergence does not name the corrupted field: %v", div)
	}

	// Shrink the pair: first the faulted context's program, then the
	// co-runner's, each holding the other fixed.
	shrunkB := Shrink(b, func(s synth.RandSpec) bool {
		return verifySMTSpecs(a, s, cfg, opts) != nil
	})
	shrunkA := Shrink(a, func(s synth.RandSpec) bool {
		return verifySMTSpecs(s, shrunkB, cfg, opts) != nil
	})
	if verifySMTSpecs(shrunkA, shrunkB, cfg, opts) == nil {
		t.Fatal("shrunk context pair no longer fails")
	}
	if shrunkA.IncludedUnits() > a.IncludedUnits() || shrunkB.IncludedUnits() > b.IncludedUnits() {
		t.Fatalf("shrinking grew the pair: %v + %v", shrunkA, shrunkB)
	}
	// The fault fires on any ctx-1 program long enough to reach seq
	// 3000, and the co-runner is architecturally irrelevant, so both
	// sides must lose at least one unit.
	if shrunkA.IncludedUnits() == a.IncludedUnits() && shrunkB.IncludedUnits() == b.IncludedUnits() {
		t.Fatalf("shrinking removed nothing from either context: %v + %v", shrunkA, shrunkB)
	}
}

// TestCheckSMTStatsCatchesCorruption corrupts one counter of a real SMT
// run per machine-wide or shared-structure law and expects the checker
// to raise that law's violation — the proof the SMT wall is
// load-bearing, not decorative. The per-context laws are mutated on both
// paths by TestCheckStatsCatchesCorruption.
func TestCheckSMTStatsCatchesCorruption(t *testing.T) {
	cfg := Ablations()[1].Config
	cfg.SMT = smtConfigFromBits(6) // rr, shared path cache + shared pcache
	cfg.MaxInsts = 12_000
	progs := []*program.Program{
		synth.RandomProgram(synth.RandSpec{Seed: 11, Units: 6}),
		synth.RandomProgram(synth.RandSpec{Seed: 12, Units: 6}),
	}
	res, err := cpu.RunSMT(context.Background(), progs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	canon := cfg.Canonical()
	if cerr := CheckSMTStats(res, canon); cerr != nil {
		t.Fatalf("clean SMT run fails stats check: %v", cerr)
	}

	// every applies a corruption to every context's (shared) copy, so
	// only the summed-stream algebra can object.
	every := func(mut func(*cpu.Result)) func(*cpu.SMTResult) {
		return func(r *cpu.SMTResult) {
			for _, c := range r.Contexts {
				mut(c)
			}
		}
	}
	mutations := []struct {
		law string
		mut func(*cpu.SMTResult)
	}{
		{`ctx 0: attempts \d+ != prefix`, func(r *cpu.SMTResult) { r.Contexts[0].Micro.CoRunnerDenied++ }},
		{`context results for \d+ configured`, func(r *cpu.SMTResult) { r.Contexts = r.Contexts[:1] }},
		{`machine budget`, func(r *cpu.SMTResult) { r.Contexts[1].Micro.Spawned += 1000 }},
		{`ctx 1: shared path-cache stats differ`, func(r *cpu.SMTResult) { r.Contexts[1].PathCache.Hits++ }},
		{`ctx 1: shared pcache stats differ`, func(r *cpu.SMTResult) { r.Contexts[1].PCache.Hits++ }},
		{`summed deliveries`, func(r *cpu.SMTResult) { r.Contexts[0].Micro.Useless++ }},
		{`shared: pcache hits \d+ \+ misses`, every(func(c *cpu.Result) { c.PCache.Misses++ })},
		{`shared: pcache overwrites`, every(func(c *cpu.Result) { c.PCache.Overwrites = c.PCache.Writes + 1 })},
		{`shared: path cache allocations`, every(func(c *cpu.Result) { c.PathCache.AllocsAvoided++ })},
		{`shared: path cache observes`, every(func(c *cpu.Result) { c.PathCache.Hits += 1 << 40 })},
		{`occupancy \d+ > capacity`, func(r *cpu.SMTResult) { r.PathCacheOccupancy = r.PathCacheCapacity + 1 }},
		{`capacity not recorded`, func(r *cpu.SMTResult) { r.PathCacheOccupancy, r.PathCacheCapacity = 0, 0 }},
		{`machine cycles`, func(r *cpu.SMTResult) { r.Cycles++ }},
		{`sharing flags`, func(r *cpu.SMTResult) { r.SharedPathCache = false }},
		{`ctx 0: branches \d+ > insts`, func(r *cpu.SMTResult) { r.Contexts[0].Branches = r.Contexts[0].Insts + 1 }},
	}
	for _, m := range mutations {
		bad := cloneSMT(res)
		m.mut(bad)
		if cerr := CheckSMTStats(bad, canon); !violates(cerr, "", m.law) {
			t.Errorf("%q: corruption not detected: %v", m.law, cerr)
		}
	}
}

// TestCheckSMTStatsSoloDenialPurity pins the CoRunnerDenied purity law
// on both paths: a solo run and a 1-context SMT run must each report
// zero denials, and the checkers must reject a nonzero count even when
// the spawn sum still balances.
func TestCheckSMTStatsSoloDenialPurity(t *testing.T) {
	cfg := Ablations()[1].Config
	cfg.MaxInsts = 8_000
	prog := synth.Random(3, 5)
	res := cpu.Run(prog, cfg)
	if err := CheckStats(res, cfg.Canonical()); err != nil {
		t.Fatalf("clean solo run fails: %v", err)
	}
	deny := func(r *cpu.Result) {
		r.Micro.CoRunnerDenied++
		r.Micro.AttemptedSpawns++ // keep the sum law satisfied; purity must still object
	}
	bad := *res
	deny(&bad)
	if err := CheckStats(&bad, cfg.Canonical()); !violates(err, "", `with no co-runners`) {
		t.Errorf("solo run with co-runner denials accepted: %v", err)
	}

	cfg.SMT = cpu.SMTConfig{Contexts: []cpu.WorkloadRef{{Bench: "solo"}}}
	smtRes, err := cpu.RunSMT(context.Background(), []*program.Program{prog}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSMTStats(smtRes, cfg.Canonical()); err != nil {
		t.Fatalf("clean 1-context SMT run fails: %v", err)
	}
	badSMT := cloneSMT(smtRes)
	deny(badSMT.Contexts[0])
	if err := CheckSMTStats(badSMT, cfg.Canonical()); !violates(err, "ctx 0: ", `with no co-runners`) {
		t.Errorf("1-context SMT run with co-runner denials accepted: %v", err)
	}
}

// traceMutations corrupts the statistics side of one trace pair each;
// the KindPathAlloc pair reconciles allocations with allocs+replaces.
var traceMutations = []struct {
	kind obs.Kind
	mut  func(*cpu.Result)
}{
	{obs.KindSpawnAttempt, func(r *cpu.Result) { r.Micro.AttemptedSpawns++ }},
	{obs.KindSpawnDropPrefix, func(r *cpu.Result) { r.Micro.PrefixMismatchDrops++ }},
	{obs.KindSpawnDropNoContext, func(r *cpu.Result) { r.Micro.NoContextDrops++ }},
	{obs.KindSpawnDropCoRunner, func(r *cpu.Result) { r.Micro.CoRunnerDenied++ }},
	{obs.KindSpawn, func(r *cpu.Result) { r.Micro.Spawned++ }},
	{obs.KindAbortActive, func(r *cpu.Result) { r.Micro.AbortedActive++ }},
	{obs.KindComplete, func(r *cpu.Result) { r.Micro.Completed++ }},
	{obs.KindMemDepViolation, func(r *cpu.Result) { r.Micro.MemDepViolations++ }},
	{obs.KindDeliveryEarly, func(r *cpu.Result) { r.Micro.Early++ }},
	{obs.KindDeliveryLate, func(r *cpu.Result) { r.Micro.Late++ }},
	{obs.KindDeliveryUseless, func(r *cpu.Result) { r.Micro.Useless++ }},
	{obs.KindPCacheWrite, func(r *cpu.Result) { r.PCache.Writes++ }},
	{obs.KindPathReplace, func(r *cpu.Result) { r.PathCache.Replacements++ }},
	{obs.KindPathPromote, func(r *cpu.Result) { r.PathCache.Promotions++ }},
	{obs.KindPathDemote, func(r *cpu.Result) { r.PathCache.Demotions++ }},
	{obs.KindPathPromoteRejected, func(r *cpu.Result) { r.PathCache.PromotionsRejected++ }},
	{obs.KindPathAlloc, func(r *cpu.Result) { r.PathCache.Allocations++ }},
}

// TestCheckTraceCatchesCorruption runs the one trace reconciliation on
// a solo run, a 2-context all-private SMT run and a 2-context
// shared-structure SMT run, and corrupts one statistic per trace pair:
// on context 0 of each, and on context 1 of the all-private run, where
// every private copy must be summed. The pair's own line must object.
func TestCheckTraceCatchesCorruption(t *testing.T) {
	progs := []*program.Program{synth.Random(11, 6), synth.Random(12, 6)}
	for _, tc := range []struct {
		name    string
		smtBits int // -1: solo
		mutated []int
	}{
		{"solo", -1, []int{0}},
		{"smt-private", 0, []int{0, 1}},
		{"smt-shared", 6, []int{0}}, // shared path cache + pcache
	} {
		cfg := Ablations()[1].Config
		cfg.MaxInsts = 12_000
		tr := obs.NewTracer()
		tr.SetLimit(1)
		cfg.Obs = tr
		res := []*cpu.Result{}
		if tc.smtBits < 0 {
			res = append(res, cpu.Run(progs[0], cfg))
		} else {
			cfg.SMT = smtConfigFromBits(uint64(tc.smtBits))
			smtRes, err := cpu.RunSMT(context.Background(), progs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res = smtRes.Contexts
		}
		shared := cfg.SMT.SharedPathCache
		if err := CheckTrace(tr, res, shared, shared); err != nil {
			t.Fatalf("%s: clean run fails trace check: %v", tc.name, err)
		}

		for _, m := range traceMutations {
			label := m.kind.String()
			if m.kind == obs.KindPathAlloc {
				label = "allocs+replaces"
			}
			for _, ctx := range tc.mutated {
				bad := cloneResults(res)
				m.mut(bad[ctx])
				if err := CheckTrace(tr, bad, shared, shared); !violates(err, "", `trace\.`+regexp.QuoteMeta(label)+` =`) {
					t.Errorf("%s ctx %d: %s corruption not detected: %v", tc.name, ctx, label, err)
				}
			}
		}
	}
}
