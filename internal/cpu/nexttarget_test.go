package cpu_test

import (
	"context"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/oracle"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

// TestNextTargetTracksActiveContexts holds the invariant the monitor's
// activity gate rests on: after every spawn, completion and abort,
// nextTarget equals the minimum targetSeq over the active contexts.
// Every oracle ablation runs over random programs and two benchmarks,
// solo and as a two-context SMT pair, with the invariant checked at
// every microcontext transition.
func TestNextTargetTracksActiveContexts(t *testing.T) {
	progs := []*program.Program{synth.Random(1, 6), synth.Random(2, 6), synth.Random(3, 8)}
	for _, name := range []string{"gcc", "go"} {
		p, err := synth.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, synth.Generate(p))
	}
	var transitions int
	var firstErr error
	restore := cpu.SetCtxTransitionHook(func(m *cpu.Machine) {
		transitions++
		if err := m.CheckNextTarget(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	defer restore()
	for _, nc := range oracle.Ablations() {
		cfg := nc.Config
		cfg.MaxInsts = 20_000
		before := transitions
		for _, p := range progs {
			cpu.Run(p, cfg)
		}
		smt := cfg
		smt.SMT = cpu.SMTConfig{Contexts: []cpu.WorkloadRef{{Bench: "a"}, {Bench: "b"}}, SharedMicroRAM: true}
		if _, err := cpu.RunSMT(context.Background(), progs[3:5], smt); err != nil {
			t.Fatal(err)
		}
		if firstErr != nil {
			t.Fatalf("%s: %v", nc.Name, firstErr)
		}
		if cfg.Mode == cpu.ModeMicrothread && transitions == before {
			t.Errorf("%s: no microcontext transitions; the check is vacuous", nc.Name)
		}
	}
}
