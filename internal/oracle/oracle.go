// Package oracle is the differential-verification subsystem: it checks
// that the timing core is architecturally transparent by running seeded
// random programs (internal/synth's Random generator) through the
// functional emulator and the timing model simultaneously and diffing
// everything architectural.
//
// Three properties are verified for every program:
//
//  1. Emulator/timing equivalence. cpu.Machine is execution-driven: it
//     steps a private emulator down the correct path. A lockstep
//     *reference* emulator, advanced from the timing core's OnRetire
//     hook, must produce a bit-identical retirement record stream (PCs,
//     source/destination values, effective addresses, branch outcomes)
//     and an identical final register file and memory image. An SMT run
//     (VerifySMT) is the same harness with one reference emulator per
//     primary context; a solo run is context 0.
//  2. SSMT-inertness. Subordinate microthreads are pure speculation
//     (Section 4 of the paper): with microthreads off, on, or under any
//     pruning/abort/spawn-policy ablation, the architectural stream and
//     final state must be identical — only cycle counts may differ.
//     Because every ablation is diffed against the same deterministic
//     reference emulation, inertness across ablations follows from each
//     run's equivalence, plus explicit cross-run checks of the retired
//     instruction and branch counts. Co-runners likewise may change each
//     other's timing, never each other's architecture.
//  3. Stats algebra. After every run the counters must satisfy the
//     conservation laws the model implies: one per-context law set
//     (CheckStats for a solo run, applied to every context by
//     CheckSMTStats), and an attached obs.Tracer's per-kind counts must
//     reconcile with the statistics (CheckTrace).
//
// A failing random program is shrunk (Shrink) to a minimal failing unit
// subset and written to testdata/repros as JSON + disassembly.
package oracle

import (
	"context"
	"fmt"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/obs"
	"dpbp/internal/program"
)

// NamedConfig is one ablation: a timing configuration with a stable name
// for divergence reports.
type NamedConfig struct {
	Name   string
	Config cpu.Config
}

// Ablations returns the default configuration sweep: the baseline
// machine, the full microthread mechanism, and spawn-policy/pruning
// ablations that exercise aborts disabled, wrong-path spawning,
// overhead-only injection, throttling, and the perfect-promoted mode.
// All of them must retire the same architectural stream.
func Ablations() []NamedConfig {
	return []NamedConfig{
		{Name: "baseline", Config: cpu.Config{Mode: cpu.ModeBaseline}},
		{Name: "micro", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
			AbortEnabled: true, RebuildOnViolation: true,
		}},
		{Name: "micro-noabort-wrongpath", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true,
			WrongPathSpawns: true, RebuildOnViolation: true,
		}},
		{Name: "micro-overhead-throttle", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, AbortEnabled: true, Throttle: true,
		}},
		{Name: "potential", Config: cpu.Config{Mode: cpu.ModePerfectPromoted}},
		{Name: "micro-tage", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
			AbortEnabled: true, RebuildOnViolation: true,
			BPred: bpred.Spec{Name: bpred.BackendTAGE},
		}},
		{Name: "micro-h2p-gate", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
			AbortEnabled: true, RebuildOnViolation: true,
			BPred: bpred.Spec{Name: bpred.BackendH2P}, H2PSpawnGate: true,
		}},
	}
}

// Fault injects an artificial stream corruption: before comparison, the
// record with sequence number Seq retired by primary context Ctx (0 in a
// solo run) has its Taken bit flipped in the named configuration (""
// corrupts every configuration, and is what an SMT run matches). It
// exists so tests can prove the harness detects and shrinks real
// divergences; a nil Fault performs no perturbation.
type Fault struct {
	Config string
	Ctx    int
	Seq    uint64
}

func (f *Fault) matches(config string, ctx int, seq uint64) bool {
	return f != nil && seq == f.Seq && ctx == f.Ctx && (f.Config == "" || f.Config == config)
}

// Options parameterises Verify and VerifySMT.
type Options struct {
	// MaxInsts bounds each context's run (default 24_000 instructions).
	MaxInsts uint64
	// Configs is Verify's ablation sweep (default Ablations()).
	// VerifySMT runs its one configuration and ignores it.
	Configs []NamedConfig
	// Trace attaches one obs tracer to every run and reconciles its
	// per-kind counts against the statistics (CheckTrace).
	Trace bool
	// Fault optionally injects a stream corruption (harness self-test).
	Fault *Fault
}

func (o Options) withDefaults() Options {
	if o.MaxInsts == 0 {
		o.MaxInsts = 24_000
	}
	if o.Configs == nil {
		o.Configs = Ablations()
	}
	return o
}

// Divergence is a verification failure: where two models disagreed, or
// where a run's statistics broke a conservation law.
type Divergence struct {
	Program string
	Config  string
	Kind    string // "stream", "regs", "mem", "stats", "trace", "cross"
	Seq     uint64
	Detail  string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("oracle: %s divergence in %q under %q at seq %d: %s",
		d.Kind, d.Program, d.Config, d.Seq, d.Detail)
}

// Verify runs prog under every configuration in the sweep and returns
// the first divergence found, or nil if every check passes.
func Verify(prog *program.Program, opts Options) error {
	opts = opts.withDefaults()
	var first *cpu.Result
	var firstName string
	for _, nc := range opts.Configs {
		res, err := run([]*program.Program{prog}, nc.Config, nc.Name, opts)
		if err != nil {
			return err
		}
		if first == nil {
			first, firstName = res[0], nc.Name
			continue
		}
		if res[0].Insts != first.Insts || res[0].Branches != first.Branches {
			return &Divergence{
				Program: prog.Name, Config: nc.Name, Kind: "cross",
				Detail: fmt.Sprintf("retired insts/branches %d/%d differ from %q's %d/%d",
					res[0].Insts, res[0].Branches, firstName, first.Insts, first.Branches),
			}
		}
	}
	return nil
}

// run is the one lockstep harness behind Verify and VerifySMT. It runs
// progs under cfg — solo when cfg.SMT is off (progs holds one program,
// context 0), as cfg.SMT's primary contexts otherwise — with one
// reference emulator per context advanced from the OnRetire hook, then
// diffs every context's final state, checks the stats algebra
// (CheckStats or CheckSMTStats) and reconciles the trace. It returns the
// per-context results.
func run(progs []*program.Program, cfg cpu.Config, name string, opts Options) ([]*cpu.Result, error) {
	cfg.MaxInsts = opts.MaxInsts
	smt := cfg.SMT.Enabled()
	ls := &lockstep{progs: progs, name: name, smt: smt, fault: opts.Fault}
	for _, p := range progs {
		ls.refs = append(ls.refs, emu.New(p))
	}
	cfg.OnRetire = ls.onRetire

	var tr *obs.Tracer
	if opts.Trace {
		tr = obs.NewTracer()
		tr.SetLimit(1) // counters only; the event buffer is not needed
		cfg.Obs = tr
	}

	var results []*cpu.Result
	var machines []*cpu.Machine
	var smtRes *cpu.SMTResult
	if smt {
		s := cpu.NewSMTMachine()
		var err error
		if smtRes, err = s.RunContext(context.Background(), progs, cfg); err != nil {
			return nil, err
		}
		results = smtRes.Contexts
		for i := range results {
			machines = append(machines, s.Context(i))
		}
	} else {
		m := cpu.NewMachine()
		res, err := m.RunContext(context.Background(), progs[0], cfg)
		if err != nil {
			return nil, err
		}
		results, machines = []*cpu.Result{res}, []*cpu.Machine{m}
	}
	if ls.div != nil {
		return nil, ls.div
	}

	// Final architectural state, per context: the timing core's internal
	// emulator must agree with the reference on every register and
	// memory word. Co-runners share timing resources, never architecture.
	for i, m := range machines {
		if d := ls.final(i, m, results[i].Insts); d != nil {
			return nil, d
		}
	}

	seq := results[0].Insts
	var err error
	if smt {
		err = CheckSMTStats(smtRes, cfg.Canonical())
	} else {
		err = CheckStats(results[0], cfg.Canonical())
	}
	if err != nil {
		return nil, ls.diverge(-1, "stats", seq, err.Error())
	}
	if tr != nil {
		if err := CheckTrace(tr, results, smt && cfg.SMT.SharedPCache, smt && cfg.SMT.SharedPathCache); err != nil {
			return nil, ls.diverge(-1, "trace", seq, err.Error())
		}
	}
	return results, nil
}

// lockstep is the reference side of one differential run: a reference
// emulator per primary context and the first divergence seen.
type lockstep struct {
	progs []*program.Program
	name  string
	smt   bool // attribute divergences to "<name>/ctx<i>"
	fault *Fault
	refs  []*emu.Machine
	rec   emu.Record
	div   *Divergence
}

// onRetire is the timing core's OnRetire hook: it steps context ctx's
// reference emulator and diffs the two retirement records.
func (l *lockstep) onRetire(ctx int, rec *emu.Record) {
	if l.div != nil {
		return
	}
	got := *rec
	if l.fault.matches(l.name, ctx, got.Seq) {
		got.Taken = !got.Taken
	}
	if !l.refs[ctx].Step(&l.rec) {
		l.div = l.diverge(ctx, "stream", got.Seq,
			"timing core retired an instruction after the reference emulator halted")
		return
	}
	if got != l.rec {
		l.div = l.diverge(ctx, "stream", got.Seq, diffRecords(&got, &l.rec))
	}
}

// final diffs context ctx's final register file and memory image against
// its reference emulator's.
func (l *lockstep) final(ctx int, m *cpu.Machine, seq uint64) *Divergence {
	ref := l.refs[ctx]
	regs := m.ArchRegs()
	for r := range regs {
		if regs[r] != ref.Regs[r] {
			return l.diverge(ctx, "regs", seq,
				fmt.Sprintf("final r%d = %d, reference %d", r, regs[r], ref.Regs[r]))
		}
	}
	if d := diffMem(m.ArchMem(nil), ref.Mem.Snapshot(nil)); d != "" {
		return l.diverge(ctx, "mem", seq, d)
	}
	return nil
}

// diverge attributes a divergence to context ctx, or to the whole run
// when ctx < 0.
func (l *lockstep) diverge(ctx int, kind string, seq uint64, detail string) *Divergence {
	d := &Divergence{Program: l.progs[max(ctx, 0)].Name, Config: l.name, Kind: kind, Seq: seq, Detail: detail}
	if l.smt && ctx >= 0 {
		d.Config = fmt.Sprintf("%s/ctx%d", l.name, ctx)
	}
	return d
}

// diffRecords names the fields on which two retirement records differ.
func diffRecords(got, want *emu.Record) string {
	switch {
	case got.Seq != want.Seq:
		return fmt.Sprintf("seq %d vs %d", got.Seq, want.Seq)
	case got.PC != want.PC:
		return fmt.Sprintf("pc %d vs %d", got.PC, want.PC)
	case got.Inst != want.Inst:
		return fmt.Sprintf("inst %+v vs %+v", got.Inst, want.Inst)
	case got.NextPC != want.NextPC:
		return fmt.Sprintf("nextPC %d vs %d", got.NextPC, want.NextPC)
	case got.Taken != want.Taken:
		return fmt.Sprintf("taken %v vs %v at pc %d", got.Taken, want.Taken, got.PC)
	case got.DstVal != want.DstVal:
		return fmt.Sprintf("dstVal %d vs %d at pc %d", got.DstVal, want.DstVal, got.PC)
	case got.EA != want.EA:
		return fmt.Sprintf("ea %d vs %d at pc %d", got.EA, want.EA, got.PC)
	case got.SrcVal != want.SrcVal:
		return fmt.Sprintf("sources %v vs %v at pc %d", got.SrcVal, want.SrcVal, got.PC)
	default:
		return "records differ"
	}
}

// diffMem reports the first difference between two memory snapshots, or
// "" if they are identical.
func diffMem(got, want []emu.MemWord) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("mem[%d] = (addr %d, val %d), reference (addr %d, val %d)",
				i, got[i].Addr, got[i].Val, want[i].Addr, want[i].Val)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("memory image has %d nonzero words, reference %d", len(got), len(want))
	}
	return ""
}
