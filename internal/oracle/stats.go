// Stats-algebra invariants: the conservation laws a Result's counters
// must satisfy after any run. Each law is derived from the model's code
// paths (the relation is cited at each check), so a violation means a
// counter was double-counted, skipped, or the model took an impossible
// path — the cheap, always-on complement to the stream diff.
package oracle

import (
	"fmt"
	"strings"

	"dpbp/internal/bpred"
	"dpbp/internal/bpred/h2p"
	"dpbp/internal/bpred/tage"
	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/pathcache"
	"dpbp/internal/pcache"
)

// violations collects the laws a run broke.
type violations []string

// chk records a violation when ok is false.
func (v *violations) chk(ok bool, format string, args ...any) {
	if !ok {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

func (v violations) err(what string) error {
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", what, strings.Join(v, "; "))
}

// CheckStats verifies the counter algebra of one solo run. cfg must be
// the canonical (defaults-applied) configuration the run used.
func CheckStats(res *cpu.Result, cfg cpu.Config) error {
	var v violations
	checkContext(v.chk, "", res, cfg)
	return v.err("stats invariants violated")
}

// checkContext states every law about the counters one timing machine
// owns: a solo run's, or one SMT context's. Laws about a structure the
// context shares with co-runners (cfg.SMT) are left to CheckSMTStats,
// which checks the machine-wide copy once against the summed stream.
func checkContext(chk func(bool, string, ...any), pfx string, c *cpu.Result, cfg cpu.Config) {
	ms := &c.Micro

	// Retirement stream totals.
	chk(c.Branches <= c.Insts, pfx+"branches %d > insts %d", c.Branches, c.Insts)
	chk(c.HWMispredicts <= c.Branches, pfx+"hw mispredicts %d > branches %d", c.HWMispredicts, c.Branches)
	chk(c.Mispredicts <= c.Branches, pfx+"mispredicts %d > branches %d", c.Mispredicts, c.Branches)

	// Spawning: every attempt is dropped by the prefix screen, dropped
	// for lack of a microcontext, denied by co-runners holding the
	// machine-wide SMT budget, or spawned (trySpawns). The Micro block
	// is per-context even when everything else is shared.
	chk(ms.AttemptedSpawns == ms.PrefixMismatchDrops+ms.NoContextDrops+ms.CoRunnerDenied+ms.Spawned,
		pfx+"attempts %d != prefix drops %d + no-context drops %d + co-runner denials %d + spawns %d",
		ms.AttemptedSpawns, ms.PrefixMismatchDrops, ms.NoContextDrops, ms.CoRunnerDenied, ms.Spawned)
	// Co-runner denials require co-runners: a solo machine never sets the
	// shared-budget pointer, and a 1-context SMT budget equals the
	// private context array, so the counter must stay zero.
	if len(cfg.SMT.Contexts) <= 1 {
		chk(ms.CoRunnerDenied == 0, pfx+"co-runner denials %d with no co-runners", ms.CoRunnerDenied)
	}

	// Microcontext lifecycle: spawned contexts complete, abort, or are
	// still in flight at run end — and in-flight is bounded by the
	// microcontext count.
	chk(ms.Completed+ms.AbortedActive <= ms.Spawned,
		pfx+"completions %d + aborts %d > spawns %d", ms.Completed, ms.AbortedActive, ms.Spawned)
	if ms.Completed+ms.AbortedActive <= ms.Spawned {
		inflight := ms.Spawned - ms.Completed - ms.AbortedActive
		chk(inflight <= uint64(cfg.Microcontexts),
			pfx+"%d contexts in flight at run end > %d microcontexts", inflight, cfg.Microcontexts)
	}

	// Delivery: early deliveries are exactly the used predictions, and
	// recoveries only arise from late deliveries.
	chk(ms.Early == ms.UsedPredictions, pfx+"early %d != used predictions %d", ms.Early, ms.UsedPredictions)
	chk(ms.UsedPredictions == ms.CorrectUsed+ms.WrongUsed,
		pfx+"used %d != correct %d + wrong %d", ms.UsedPredictions, ms.CorrectUsed, ms.WrongUsed)
	chk(ms.UsedFixed <= ms.CorrectUsed, pfx+"fixed %d > correct used %d", ms.UsedFixed, ms.CorrectUsed)
	chk(ms.UsedBroke <= ms.WrongUsed, pfx+"broke %d > wrong used %d", ms.UsedBroke, ms.WrongUsed)
	chk(ms.EarlyRecoveries+ms.BogusRecoveries <= ms.Late,
		pfx+"recoveries %d+%d > late deliveries %d", ms.EarlyRecoveries, ms.BogusRecoveries, ms.Late)

	// Private structures obey their algebra against this context's own
	// stream; every consumed prediction is classified exactly once
	// (handleBranch).
	if !cfg.SMT.SharedPCache {
		chk(ms.Early+ms.Late+ms.Useless == c.PCache.Hits,
			pfx+"early %d + late %d + useless %d != pcache hits %d",
			ms.Early, ms.Late, ms.Useless, c.PCache.Hits)
		checkPCacheAlgebra(chk, pfx, &c.PCache, c.Branches, cfg)
	}
	if !cfg.SMT.SharedPathCache {
		checkPathCacheAlgebra(chk, pfx, &c.PathCache, c.Branches)
	}

	// Direction backend: handleBranch pairs exactly one Dir.Predict with
	// one Dir.Update per retired conditional branch, so the live
	// backend's counters reconcile with the front end's class totals,
	// and the inactive sections of the stats union stay zero. This holds
	// in every sharing mode: a shared predictor gives each context the
	// same machine-wide copy of both sides.
	checkBackendStats(chk, pfx, c, cfg)

	// Builder.
	chk(ms.Rebuilds <= c.Build.Builds, pfx+"rebuilds %d > builds %d", ms.Rebuilds, c.Build.Builds)
	chk(c.Build.Builds <= c.Build.SizeSum || c.Build.Builds == 0,
		pfx+"builds %d > size sum %d (empty routines?)", c.Build.Builds, c.Build.SizeSum)

	// Modes without the microthread machinery must not touch it at all.
	if cfg.Mode == cpu.ModeBaseline || cfg.Mode == cpu.ModePerfectAll || cfg.Mode == cpu.ModePerfectPromoted {
		chk(c.Micro == (cpu.MicroStats{}), pfx+"micro stats nonzero in mode %v: %+v", cfg.Mode, c.Micro)
		chk(c.PCache == (pcache.Stats{}), pfx+"prediction-cache stats nonzero in mode %v", cfg.Mode)
	}
	if cfg.Mode == cpu.ModeBaseline || cfg.Mode == cpu.ModePerfectAll {
		chk(c.PathCache == (pathcache.Stats{}), pfx+"path-cache stats nonzero in mode %v", cfg.Mode)
	}
}

// checkPCacheAlgebra is the Prediction Cache's counter algebra, scoped
// by the caller: a private cache against its context's branches, a
// shared cache against the summed branches. The front end probes it once
// per retired terminating branch when predictions are in use; every
// entry that hit, expired, or was evicted was first installed by a
// non-overwriting write.
func checkPCacheAlgebra(chk func(bool, string, ...any), pfx string, pc *pcache.Stats, branches uint64, cfg cpu.Config) {
	if cfg.Mode == cpu.ModeMicrothread && cfg.UsePredictions {
		chk(pc.Hits+pc.Misses == branches,
			pfx+"pcache hits %d + misses %d != branches %d", pc.Hits, pc.Misses, branches)
	}
	chk(pc.Overwrites <= pc.Writes, pfx+"pcache overwrites %d > writes %d", pc.Overwrites, pc.Writes)
	if pc.Overwrites <= pc.Writes {
		chk(pc.Hits+pc.Expired+pc.Evictions <= pc.Writes-pc.Overwrites,
			pfx+"pcache hits %d + expired %d + evicted %d > installs %d",
			pc.Hits, pc.Expired, pc.Evictions, pc.Writes-pc.Overwrites)
	}
}

// checkPathCacheAlgebra is the Path Cache's counter algebra, scoped like
// checkPCacheAlgebra. Observes split into hits and misses; misses split
// into allocations and avoided allocations; a replacement is an
// allocation; every counted demotion clears a bit a counted promotion
// set (replacement wipes the bit without counting, so promotions can
// only exceed demotions, never trail them).
func checkPathCacheAlgebra(chk func(bool, string, ...any), pfx string, ph *pathcache.Stats, branches uint64) {
	chk(ph.Hits+ph.Misses <= branches,
		pfx+"path cache observes %d > branches %d", ph.Hits+ph.Misses, branches)
	chk(ph.Allocations+ph.AllocsAvoided == ph.Misses,
		pfx+"path cache allocations %d + avoided %d != misses %d", ph.Allocations, ph.AllocsAvoided, ph.Misses)
	chk(ph.Replacements <= ph.Allocations,
		pfx+"path cache replacements %d > allocations %d", ph.Replacements, ph.Allocations)
	chk(ph.Demotions <= ph.Promotions,
		pfx+"path cache demotions %d > promotions %d", ph.Demotions, ph.Promotions)
	chk(ph.DifficultCleared <= ph.DifficultSet,
		pfx+"difficult cleared %d > set %d", ph.DifficultCleared, ph.DifficultSet)
}

// checkBackendStats verifies the direction-backend counter algebra for
// the backend cfg selects. The laws are cited from the backend
// implementations: each documents where the relation comes from.
func checkBackendStats(chk func(bool, string, ...any), pfx string, res *cpu.Result, cfg cpu.Config) {
	bs := &res.Backend
	ps := &res.PredStats
	spec := cfg.BPred.Canonical()
	switch spec.Name {
	case bpred.BackendHybrid:
		h := &bs.Hybrid
		chk(h.Lookups == ps.CondPredicted && h.Updates == ps.CondPredicted,
			pfx+"hybrid lookups %d / updates %d != cond branches %d", h.Lookups, h.Updates, ps.CondPredicted)
		// The selector picks exactly one component per update.
		chk(h.GshareSelected+h.PAsSelected == h.Updates,
			pfx+"hybrid gshare %d + pas %d != updates %d", h.GshareSelected, h.PAsSelected, h.Updates)
		chk(h.Disagreements <= h.Updates, pfx+"hybrid disagreements %d > updates %d", h.Disagreements, h.Updates)
		// The backend's own correctness count is the front end's.
		chk(h.Correct == ps.CondPredicted-ps.CondMispredicted,
			pfx+"hybrid correct %d != cond %d - mispredicted %d", h.Correct, ps.CondPredicted, ps.CondMispredicted)
		chk(bs.TAGE == (tage.Stats{}) && bs.H2P == (h2p.Stats{}),
			pfx+"inactive backend sections nonzero under hybrid")
	case bpred.BackendTAGE:
		t := &bs.TAGE
		chk(t.Lookups == ps.CondPredicted && t.Updates == ps.CondPredicted,
			pfx+"tage lookups %d / updates %d != cond branches %d", t.Lookups, t.Updates, ps.CondPredicted)
		// Every update has exactly one provider (tagged hit or bimodal).
		chk(t.ProviderTagged+t.ProviderBimodal == t.Updates,
			pfx+"tage providers %d+%d != updates %d", t.ProviderTagged, t.ProviderBimodal, t.Updates)
		chk(t.AltUsed <= t.ProviderTagged, pfx+"tage alt-used %d > tagged providers %d", t.AltUsed, t.ProviderTagged)
		chk(t.Correct+t.Mispredicts == t.Updates,
			pfx+"tage correct %d + mispredicts %d != updates %d", t.Correct, t.Mispredicts, t.Updates)
		chk(t.Mispredicts == ps.CondMispredicted,
			pfx+"tage mispredicts %d != cond mispredicted %d", t.Mispredicts, ps.CondMispredicted)
		// Allocation is attempted only on a mispredict with a longer
		// table available.
		chk(t.Allocations+t.AllocFailed <= t.Mispredicts,
			pfx+"tage allocations %d + failed %d > mispredicts %d", t.Allocations, t.AllocFailed, t.Mispredicts)
		// sinceDecay advances once per update and wraps at the interval.
		chk(t.UDecays == t.Updates/uint64(spec.TAGE.UDecayInterval),
			pfx+"tage decays %d != updates %d / interval %d", t.UDecays, t.Updates, spec.TAGE.UDecayInterval)
		chk(bs.Hybrid == (bpred.HybridStats{}) && bs.H2P == (h2p.Stats{}),
			pfx+"inactive backend sections nonzero under tage")
	case bpred.BackendH2P:
		h := &bs.H2P
		chk(h.Lookups == ps.CondPredicted && h.Updates == ps.CondPredicted,
			pfx+"h2p lookups %d / updates %d != cond branches %d", h.Lookups, h.Updates, ps.CondPredicted)
		// Every override is scored exactly once.
		chk(h.Overrides == h.OverrideCorrect+h.OverrideWrong,
			pfx+"h2p overrides %d != correct %d + wrong %d", h.Overrides, h.OverrideCorrect, h.OverrideWrong)
		// Overriding requires the branch be classified hard-to-predict.
		chk(h.Overrides <= h.H2PBranches && h.H2PBranches <= h.Updates,
			pfx+"h2p overrides %d > h2p branches %d or > updates %d", h.Overrides, h.H2PBranches, h.Updates)
		chk(h.BaseMispredicts <= h.Updates, pfx+"h2p base mispredicts %d > updates %d", h.BaseMispredicts, h.Updates)
		chk(bs.Hybrid == (bpred.HybridStats{}) && bs.TAGE == (tage.Stats{}),
			pfx+"inactive backend sections nonzero under h2p")
	}

	// The spawn gate exists only when configured, and every skip rejected
	// a promotion.
	gateOn := cfg.H2PSpawnGate && (cfg.Mode == cpu.ModeMicrothread || cfg.Mode == cpu.ModePerfectPromoted)
	if !gateOn {
		chk(res.Micro.H2PGateSkips == 0, pfx+"h2p gate skips %d with gate off", res.Micro.H2PGateSkips)
	}
	chk(res.Micro.H2PGateSkips <= res.PathCache.PromotionsRejected,
		pfx+"h2p gate skips %d > rejected promotions %d", res.Micro.H2PGateSkips, res.PathCache.PromotionsRejected)
}

// CheckTrace reconciles one tracer with the statistics of the run it
// observed: ctxs holds one Result per primary context (a solo run is
// context 0), and the flags say which structures the contexts share.
// Every emit site pairs with exactly one counter increment, so all pairs
// must match exactly. Micro-block kinds are per-context counters and sum
// over contexts; structure-owned kinds sum the private copies, or take
// context 0's machine-wide copy when the structure is shared (summing the
// identical copies would count each event k times).
func CheckTrace(tr *obs.Tracer, ctxs []*cpu.Result, sharedPCache, sharedPathCache bool) error {
	type pair struct {
		kind   obs.Kind
		want   uint64
		shared bool
	}
	pairs := func(c *cpu.Result) []pair {
		ms, pc, ph := &c.Micro, &c.PCache, &c.PathCache
		return []pair{
			{obs.KindSpawnAttempt, ms.AttemptedSpawns, false},
			{obs.KindSpawnDropPrefix, ms.PrefixMismatchDrops, false},
			{obs.KindSpawnDropNoContext, ms.NoContextDrops, false},
			{obs.KindSpawnDropCoRunner, ms.CoRunnerDenied, false},
			{obs.KindSpawn, ms.Spawned, false},
			{obs.KindAbortActive, ms.AbortedActive, false},
			{obs.KindComplete, ms.Completed, false},
			{obs.KindMemDepViolation, ms.MemDepViolations, false},
			{obs.KindDeliveryEarly, ms.Early, false},
			{obs.KindDeliveryLate, ms.Late, false},
			{obs.KindDeliveryUseless, ms.Useless, false},
			{obs.KindPCacheWrite, pc.Writes, sharedPCache},
			{obs.KindPathReplace, ph.Replacements, sharedPathCache},
			{obs.KindPathPromote, ph.Promotions, sharedPathCache},
			{obs.KindPathDemote, ph.Demotions, sharedPathCache},
			{obs.KindPathPromoteRejected, ph.PromotionsRejected, sharedPathCache},
			// Allocations count replacements too: allocs+replaces.
			{obs.KindPathAlloc, ph.Allocations, sharedPathCache},
		}
	}
	var want []pair
	for i, c := range ctxs {
		for j, p := range pairs(c) {
			if i == 0 {
				want = append(want, p)
			} else if !p.shared {
				want[j].want += p.want
			}
		}
	}
	var v violations
	for _, p := range want {
		got, label := tr.Count(p.kind), p.kind.String()
		if p.kind == obs.KindPathAlloc {
			got, label = got+tr.Count(obs.KindPathReplace), "allocs+replaces"
		}
		v.chk(got == p.want, "trace.%s = %d, stats say %d", label, got, p.want)
	}
	return v.err("trace counters do not reconcile")
}
