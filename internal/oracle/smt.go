// SMT differential verification: VerifySMT is Verify's lockstep harness
// with one reference emulator per primary context, so co-runners may
// change each other's *timing* arbitrarily but never each other's
// architecture: every context must retire exactly the stream its solo
// reference produces and end with its reference's register file and
// memory image. CheckSMTStats applies the solo law set to every context
// and adds the laws that only exist under sharing, like Path Cache
// occupancy never exceeding capacity and the machine-wide microcontext
// budget bounding total in-flight spawns.
package oracle

import (
	"errors"
	"fmt"
	"reflect"

	"dpbp/internal/cpu"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

// VerifySMT runs progs as cfg.SMT's primary contexts through the same
// lockstep harness as Verify and returns the first divergence found, or
// nil. cfg.SMT must be enabled and len(progs) must match its context
// count. A 1-context run is additionally checked bit-identical to the
// plain solo run of the same workload — the bridge law the whole SMT
// wall rests on.
func VerifySMT(progs []*program.Program, cfg cpu.Config, opts Options) error {
	if !cfg.SMT.Enabled() {
		return errors.New("oracle: VerifySMT needs an SMT configuration")
	}
	opts = opts.withDefaults()
	cfg.MaxInsts = opts.MaxInsts
	name := "smt-" + cfg.SMT.FetchPolicy.String()
	res, err := run(progs, cfg, name, opts)
	if err != nil {
		return err
	}

	// The bridge law: SMT with every other context empty IS the solo
	// machine. A 1-context run must be bit-identical to cpu.Run of the
	// same program under the SMT-stripped configuration.
	if len(res) == 1 {
		solo := cfg
		solo.SMT = cpu.SMTConfig{}
		solo.OnRetire, solo.Obs = nil, nil
		want := cpu.Run(progs[0], solo)
		if !reflect.DeepEqual(want, res[0]) {
			return &Divergence{
				Program: progs[0].Name, Config: name, Kind: "cross",
				Detail: fmt.Sprintf("1-context SMT diverged from solo:\nsolo: %+v\nsmt:  %+v", want, res[0]),
			}
		}
	}
	return nil
}

// CheckSMTStats verifies the conservation laws of one SMT run. Every
// context obeys the solo law set (checkContext), which leaves the laws
// of a shared structure to this function: its counters are machine-wide,
// every context carries an identical combined copy, and that copy obeys
// the structure's algebra once against the summed stream. The rest are
// machine-wide laws with no solo analogue (total in-flight microthreads
// bounded by the shared budget; Path Cache occupancy bounded by
// capacity). cfg must be the canonical configuration the run used.
func CheckSMTStats(res *cpu.SMTResult, cfg cpu.Config) error {
	var v violations
	chk := v.chk
	smt := cfg.SMT
	k := len(res.Contexts)
	chk(k == len(smt.Contexts), "%d context results for %d configured contexts", k, len(smt.Contexts))
	chk(res.SharedPathCache == smt.SharedPathCache && res.SharedPCache == smt.SharedPCache &&
		res.SharedMicroRAM == smt.SharedMicroRAM && res.SharedPredictor == smt.SharedPredictor,
		"sharing flags in result do not match the configuration")

	var sumBranches, sumInflight, sumDeliveries, maxCycles uint64
	for i, c := range res.Contexts {
		checkContext(chk, fmt.Sprintf("ctx %d: ", i), c, cfg)
		ms := &c.Micro
		sumBranches += c.Branches
		maxCycles = max(maxCycles, c.Cycles)
		if ms.Completed+ms.AbortedActive <= ms.Spawned {
			sumInflight += ms.Spawned - ms.Completed - ms.AbortedActive
		}
		sumDeliveries += ms.Early + ms.Late + ms.Useless
	}

	// Machine-wide budget: microcontexts are one contended pool, so the
	// total in flight at run end can never exceed it (activate/deactivate
	// track the shared counter).
	chk(sumInflight <= uint64(cfg.Microcontexts),
		"%d microthreads in flight across contexts > machine budget %d", sumInflight, cfg.Microcontexts)

	// Machine span is the max context span.
	chk(res.Cycles == maxCycles, "machine cycles %d != max context span %d", res.Cycles, maxCycles)

	// Shared structures: every context carries an identical machine-wide
	// copy, and that copy obeys the structure's algebra against the
	// summed stream.
	if smt.SharedPCache && k > 0 {
		pc := res.Contexts[0].PCache
		for i, c := range res.Contexts[1:] {
			chk(c.PCache == pc, "ctx %d: shared pcache stats differ from ctx 0", i+1)
		}
		chk(sumDeliveries == pc.Hits,
			"summed deliveries %d != shared pcache hits %d", sumDeliveries, pc.Hits)
		checkPCacheAlgebra(chk, "shared: ", &pc, sumBranches, cfg)
	}
	if smt.SharedPathCache && k > 0 {
		ph := res.Contexts[0].PathCache
		for i, c := range res.Contexts[1:] {
			chk(c.PathCache == ph, "ctx %d: shared path-cache stats differ from ctx 0", i+1)
		}
		checkPathCacheAlgebra(chk, "shared: ", &ph, sumBranches)
	}

	// Occupancy: valid Path Cache entries can never exceed capacity —
	// shared or private, no allocation path creates an entry without a
	// set/way slot.
	chk(res.PathCacheCapacity > 0, "path cache capacity not recorded")
	chk(res.PathCacheOccupancy <= res.PathCacheCapacity,
		"path cache occupancy %d > capacity %d", res.PathCacheOccupancy, res.PathCacheCapacity)
	return v.err("SMT stats invariants violated")
}

// smtConfigFromBits decodes one fuzzable SMT configuration: two
// contexts whose fetch policy is bit 0 and sharing flags bits 1..4.
// The fuzzer treats a zero bit field as "no SMT", so the existing
// single-thread corpus keeps its meaning.
func smtConfigFromBits(bits uint64) cpu.SMTConfig {
	policy := cpu.FetchRoundRobin
	if bits&1 != 0 {
		policy = cpu.FetchICount
	}
	return cpu.SMTConfig{
		Contexts:        []cpu.WorkloadRef{{Bench: "fuzz-a"}, {Bench: "fuzz-b"}},
		FetchPolicy:     policy,
		SharedPathCache: bits&2 != 0,
		SharedPCache:    bits&4 != 0,
		SharedMicroRAM:  bits&8 != 0,
		SharedPredictor: bits&16 != 0,
	}
}

// verifySMTSpecs is the fuzz/shrink entry point: generate both contexts'
// programs from their specs and verify the pair under cfg.
func verifySMTSpecs(a, b synth.RandSpec, cfg cpu.Config, opts Options) error {
	progs := []*program.Program{synth.RandomProgram(a), synth.RandomProgram(b)}
	return VerifySMT(progs, cfg, opts)
}
