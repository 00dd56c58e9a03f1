package oracle

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

// smokeOpts is the deterministic suite's budget: small enough that 64
// seeds x 5 ablations stay fast, large enough that promotions, spawns,
// deliveries, aborts, and evictions all occur across the seed set.
func smokeOpts() Options {
	return Options{MaxInsts: 12_000, Trace: true}
}

// TestOracleSmoke is the deterministic 64-seed differential suite: every
// seeded random program must retire identical architectural streams and
// final state under the emulator and every timing-core ablation, with
// all stats-algebra invariants and trace reconciliations holding.
func TestOracleSmoke(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		prog := synth.Random(seed, 6)
		if err := Verify(prog, smokeOpts()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestOracleCoversMicroActivity guards the suite against vacuity: across
// the smoke seeds the microthread machinery must actually fire — spawns,
// prediction deliveries, and Path Cache promotions all nonzero — or the
// inertness checks would be checking an idle mechanism.
func TestOracleCoversMicroActivity(t *testing.T) {
	var spawns, hits, promos uint64
	cfg := Ablations()[1].Config // full microthread mechanism
	cfg.MaxInsts = 12_000
	for seed := int64(1); seed <= 16; seed++ {
		res := cpu.Run(synth.Random(seed, 6), cfg)
		spawns += res.Micro.Spawned
		hits += res.PCache.Hits
		promos += res.PathCache.Promotions
	}
	if spawns == 0 || hits == 0 || promos == 0 {
		t.Fatalf("smoke workload exercises no microthread activity: spawns=%d deliveries=%d promotions=%d",
			spawns, hits, promos)
	}
}

// TestFixedKernelsVerify runs a few of the paper-profile programs (not
// just random ones) through the oracle, so the fixed kernels are covered
// by the same differential checks.
func TestFixedKernelsVerify(t *testing.T) {
	for _, name := range []string{"comp", "li", "mcf_2k"} {
		p, err := synth.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(synth.Generate(p), smokeOpts()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestVerifyDetectsInjectedFault proves the harness detects a stream
// corruption and shrinks it to a minimal repro: a flipped Taken bit at
// one sequence number must surface as a stream divergence, survive
// shrinking, and round-trip through the repro files.
func TestVerifyDetectsInjectedFault(t *testing.T) {
	spec := synth.RandSpec{Seed: 7, Units: 6}
	opts := smokeOpts()
	opts.Fault = &Fault{Config: "micro", Seq: 5_000}

	failing := func(s synth.RandSpec) bool {
		return Verify(synth.RandomProgram(s), opts) != nil
	}
	if !failing(spec) {
		t.Fatal("injected fault not detected")
	}
	err := Verify(synth.RandomProgram(spec), opts)
	div, ok := err.(*Divergence)
	if !ok || div.Kind != "stream" || div.Seq != 5_000 {
		t.Fatalf("expected a stream divergence at seq 5000, got %v", err)
	}
	if !strings.Contains(div.Detail, "taken") {
		t.Errorf("divergence does not name the corrupted field: %v", div)
	}

	shrunk := Shrink(spec, failing)
	if !failing(shrunk) {
		t.Fatal("shrunk spec no longer fails")
	}
	if shrunk.IncludedUnits() > spec.IncludedUnits() {
		t.Fatalf("shrinking grew the spec: %v -> %v", spec, shrunk)
	}
	// The fault triggers on any program long enough to reach seq 5000,
	// so greedy removal must strip at least one unit.
	if shrunk.IncludedUnits() == spec.IncludedUnits() {
		t.Fatalf("shrinking removed nothing: %v", shrunk)
	}

	dir := t.TempDir()
	repro := Repro{Seed: shrunk.Seed, Units: shrunk.Units, Omit: shrunk.Omit,
		MaxInsts: opts.MaxInsts, Error: err.Error()}
	path, werr := WriteRepro(dir, repro)
	if werr != nil {
		t.Fatal(werr)
	}
	loaded, lerr := LoadRepro(path)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if loaded.Spec().String() != shrunk.String() {
		t.Fatalf("repro round-trip changed the spec: %v vs %v", loaded.Spec(), shrunk)
	}
	if !failing(loaded.Spec()) {
		t.Fatal("reloaded repro no longer fails")
	}
}

// TestFaultInAllConfigs checks the "" (every config) fault scope and
// that the failing config is named in the divergence.
func TestFaultInAllConfigs(t *testing.T) {
	opts := smokeOpts()
	opts.Fault = &Fault{Seq: 100}
	err := Verify(synth.Random(3, 4), opts)
	div, ok := err.(*Divergence)
	if !ok {
		t.Fatalf("expected divergence, got %v", err)
	}
	if div.Config != "baseline" {
		t.Errorf("first corrupted config should be baseline, got %q", div.Config)
	}
}

// ablation returns the named configuration of Ablations().
func ablation(t *testing.T, name string) cpu.Config {
	t.Helper()
	for _, nc := range Ablations() {
		if nc.Name == name {
			return nc.Config
		}
	}
	t.Fatalf("no ablation %q", name)
	return cpu.Config{}
}

// violates reports whether err lists a violation that carries prefix
// pfx and matches the law pattern.
func violates(err error, pfx, law string) bool {
	if err == nil {
		return false
	}
	re := regexp.MustCompile(law)
	for _, v := range strings.Split(err.Error(), "; ") {
		if strings.Contains(v, pfx) && re.MatchString(v) {
			return true
		}
	}
	return false
}

// contextMutations corrupts one counter of a run per per-context law:
// law is a pattern of the violation the corruption must raise, config
// the ablation whose run it corrupts (backend and mode laws only apply
// under their own backend or mode). Co-runner denial purity, which has
// no co-runner-free context to apply to in a 2-context run, is covered
// by TestCheckSMTStatsSoloDenialPurity.
var contextMutations = []struct {
	law    string
	config string
	mut    func(*cpu.Result)
}{
	// Stream totals.
	{`branches \d+ > insts`, "micro", func(r *cpu.Result) { r.Branches = r.Insts + 1 }},
	{`hw mispredicts \d+ > branches`, "micro", func(r *cpu.Result) { r.HWMispredicts = r.Branches + 1 }},
	{`(^|: )mispredicts \d+ > branches`, "micro", func(r *cpu.Result) { r.Mispredicts = r.Branches + 1 }},
	// Spawn algebra and lifecycle.
	{`attempts \d+ != prefix drops`, "micro", func(r *cpu.Result) { r.Micro.Spawned++ }},
	{`completions \d+ \+ aborts \d+ > spawns`, "micro", func(r *cpu.Result) { r.Micro.Completed = r.Micro.Spawned + 1 }},
	{`contexts in flight at run end`, "micro", func(r *cpu.Result) {
		r.Micro.Spawned += 1000
		r.Micro.AttemptedSpawns += 1000
	}},
	// Delivery split.
	{`useless \d+ != pcache hits`, "micro", func(r *cpu.Result) { r.Micro.Useless++ }},
	{`early \d+ != used predictions`, "micro", func(r *cpu.Result) { r.Micro.UsedPredictions++ }},
	{`used \d+ != correct`, "micro", func(r *cpu.Result) { r.Micro.CorrectUsed++ }},
	{`fixed \d+ > correct used`, "micro", func(r *cpu.Result) { r.Micro.UsedFixed = r.Micro.CorrectUsed + 1 }},
	{`broke \d+ > wrong used`, "micro", func(r *cpu.Result) { r.Micro.UsedBroke = r.Micro.WrongUsed + 1 }},
	{`recoveries \d+\+\d+ > late`, "micro", func(r *cpu.Result) { r.Micro.EarlyRecoveries = r.Micro.Late + 1 }},
	// Private Prediction Cache.
	{`pcache hits \d+ \+ misses`, "micro", func(r *cpu.Result) { r.PCache.Misses++ }},
	{`pcache overwrites`, "micro", func(r *cpu.Result) { r.PCache.Overwrites = r.PCache.Writes + 1 }},
	{`> installs`, "micro", func(r *cpu.Result) { r.PCache.Expired = r.PCache.Writes + 1 }},
	// Private Path Cache.
	{`path cache observes`, "micro", func(r *cpu.Result) { r.PathCache.Hits = r.Branches + 1 }},
	{`path cache allocations \d+ \+ avoided`, "micro", func(r *cpu.Result) { r.PathCache.AllocsAvoided++ }},
	{`path cache replacements`, "micro", func(r *cpu.Result) { r.PathCache.Replacements = r.PathCache.Allocations + 1 }},
	{`path cache demotions`, "micro", func(r *cpu.Result) { r.PathCache.Demotions = r.PathCache.Promotions + 1 }},
	{`difficult cleared`, "micro", func(r *cpu.Result) { r.PathCache.DifficultCleared = r.PathCache.DifficultSet + 1 }},
	// Hybrid backend.
	{`hybrid lookups`, "micro", func(r *cpu.Result) { r.Backend.Hybrid.Updates++ }},
	{`hybrid gshare`, "micro", func(r *cpu.Result) { r.Backend.Hybrid.GshareSelected++ }},
	{`hybrid disagreements`, "micro", func(r *cpu.Result) { r.Backend.Hybrid.Disagreements = r.Backend.Hybrid.Updates + 1 }},
	{`hybrid correct`, "micro", func(r *cpu.Result) { r.Backend.Hybrid.Correct++ }},
	{`nonzero under hybrid`, "micro", func(r *cpu.Result) { r.Backend.TAGE.Lookups++ }},
	// TAGE backend.
	{`tage lookups`, "micro-tage", func(r *cpu.Result) { r.Backend.TAGE.Lookups++ }},
	{`tage providers`, "micro-tage", func(r *cpu.Result) { r.Backend.TAGE.ProviderTagged++ }},
	{`tage alt-used`, "micro-tage", func(r *cpu.Result) { r.Backend.TAGE.AltUsed = r.Backend.TAGE.ProviderTagged + 1 }},
	{`tage correct`, "micro-tage", func(r *cpu.Result) { r.Backend.TAGE.Correct++ }},
	{`tage mispredicts \d+ != cond mispredicted`, "micro-tage", func(r *cpu.Result) { r.PredStats.CondMispredicted++ }},
	{`tage allocations`, "micro-tage", func(r *cpu.Result) { r.Backend.TAGE.Allocations = r.Backend.TAGE.Mispredicts + 1 }},
	{`tage decays`, "micro-tage", func(r *cpu.Result) { r.Backend.TAGE.UDecays++ }},
	{`nonzero under tage`, "micro-tage", func(r *cpu.Result) { r.Backend.Hybrid.Lookups++ }},
	// H2P backend and its spawn gate.
	{`h2p lookups`, "micro-h2p-gate", func(r *cpu.Result) { r.Backend.H2P.Lookups++ }},
	{`h2p overrides \d+ != correct`, "micro-h2p-gate", func(r *cpu.Result) { r.Backend.H2P.OverrideWrong++ }},
	{`h2p overrides \d+ > h2p branches`, "micro-h2p-gate", func(r *cpu.Result) { r.Backend.H2P.H2PBranches = r.Backend.H2P.Updates + 1 }},
	{`h2p base mispredicts`, "micro-h2p-gate", func(r *cpu.Result) { r.Backend.H2P.BaseMispredicts = r.Backend.H2P.Updates + 1 }},
	{`nonzero under h2p`, "micro-h2p-gate", func(r *cpu.Result) { r.Backend.Hybrid.Lookups++ }},
	{`gate skips \d+ > rejected promotions`, "micro-h2p-gate", func(r *cpu.Result) {
		r.Micro.H2PGateSkips = r.PathCache.PromotionsRejected + 1
	}},
	{`gate skips \d+ with gate off`, "micro", func(r *cpu.Result) { r.Micro.H2PGateSkips++ }},
	// Builder.
	{`rebuilds \d+ > builds`, "micro", func(r *cpu.Result) { r.Micro.Rebuilds = r.Build.Builds + 1 }},
	{`builds \d+ > size sum`, "micro", func(r *cpu.Result) { r.Build.Builds = r.Build.SizeSum + 1 }},
	// Mode purity.
	{`micro stats nonzero`, "baseline", func(r *cpu.Result) { r.Micro.MemDepViolations++ }},
	{`prediction-cache stats nonzero`, "baseline", func(r *cpu.Result) { r.PCache.Writes++ }},
	{`path-cache stats nonzero`, "baseline", func(r *cpu.Result) { r.PathCache.Promotions++ }},
}

// TestCheckStatsCatchesCorruption applies the per-context mutation table
// to both paths of the one law set: a solo run (CheckStats) and each
// context of a 2-context, all-private SMT run (CheckSMTStats). Every
// mutant must raise its own law's violation, attributed to the mutated
// context.
func TestCheckStatsCatchesCorruption(t *testing.T) {
	type cleanRuns struct {
		cfg, smtCfg cpu.Config // canonical
		solo        *cpu.Result
		smt         *cpu.SMTResult
	}
	clean := map[string]*cleanRuns{}
	for _, m := range contextMutations {
		c := clean[m.config]
		if c == nil {
			cfg := ablation(t, m.config)
			cfg.MaxInsts = 12_000
			c = &cleanRuns{cfg: cfg.Canonical(), solo: cpu.Run(synth.Random(11, 6), cfg)}
			if err := CheckStats(c.solo, c.cfg); err != nil {
				t.Fatalf("%s: clean run fails stats check: %v", m.config, err)
			}
			cfg.SMT = smtConfigFromBits(0) // rr, everything private
			c.smtCfg = cfg.Canonical()
			progs := []*program.Program{synth.Random(11, 6), synth.Random(12, 6)}
			var err error
			if c.smt, err = cpu.RunSMT(context.Background(), progs, cfg); err != nil {
				t.Fatal(err)
			}
			if err := CheckSMTStats(c.smt, c.smtCfg); err != nil {
				t.Fatalf("%s: clean SMT run fails stats check: %v", m.config, err)
			}
			clean[m.config] = c
		}

		bad := *c.solo
		m.mut(&bad)
		if err := CheckStats(&bad, c.cfg); !violates(err, "", m.law) {
			t.Errorf("solo %s: corruption not detected as %q: %v", m.config, m.law, err)
		}
		for ctx := range c.smt.Contexts {
			bad := cloneSMT(c.smt)
			m.mut(bad.Contexts[ctx])
			if err := CheckSMTStats(bad, c.smtCfg); !violates(err, fmt.Sprintf("ctx %d: ", ctx), m.law) {
				t.Errorf("smt %s ctx %d: corruption not detected as %q: %v", m.config, ctx, m.law, err)
			}
		}
	}
}

// cloneSMT copies an SMT result deeply enough to corrupt one context.
func cloneSMT(res *cpu.SMTResult) *cpu.SMTResult {
	c := *res
	c.Contexts = cloneResults(res.Contexts)
	return &c
}

// cloneResults copies each Result so one can be corrupted alone.
func cloneResults(rs []*cpu.Result) []*cpu.Result {
	out := make([]*cpu.Result, len(rs))
	for i, r := range rs {
		rr := *r
		out[i] = &rr
	}
	return out
}

// TestShrinkKeepsOneUnit pins the shrinker's floor: a predicate that
// always fails must not shrink below a single unit.
func TestShrinkKeepsOneUnit(t *testing.T) {
	spec := synth.RandSpec{Seed: 1, Units: 5}
	got := Shrink(spec, func(synth.RandSpec) bool { return true })
	if got.IncludedUnits() != 1 {
		t.Fatalf("expected 1 unit left, got %d (%v)", got.IncludedUnits(), got)
	}
}

// TestLoadReproRejectsGarbage covers the error paths of LoadRepro.
func TestLoadReproRejectsGarbage(t *testing.T) {
	if _, err := LoadRepro(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
	p := t.TempDir() + "/bad.json"
	if err := writeFile(p, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(p); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := writeFile(p, "{}"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(p); err == nil {
		t.Error("unit-less repro accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
