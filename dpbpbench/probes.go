package main

import (
	"context"
	"fmt"
	"time"

	"dpbp/internal/bpred"
	"dpbp/internal/cache"
	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/mem"
	"dpbp/internal/path"
	"dpbp/internal/pathcache"
	"dpbp/internal/pathprof"
	"dpbp/internal/pcache"
	"dpbp/internal/program"
	"dpbp/internal/replay"
	"dpbp/internal/runcache"
	"dpbp/internal/uthread"
	"dpbp/internal/vpred"
)

const (
	// probePrograms is how many of a workload's programs the seed picks
	// for the layer probes.
	probePrograms = 4
	// probeReps is how many times each probe repeats; it reports the
	// median.
	probeReps = 3
	// promosPerProgram caps the PRB windows kept per program.
	promosPerProgram = 32
	// pcacheLag is how many predictions the Prediction Cache probe
	// writes ahead of the one it consumes, as microthreads run ahead of
	// fetch.
	pcacheLag = 16
	// executeRounds is how often the execute probe runs each routine.
	executeRounds = 64
)

// probeInput is what one functional pass over a probe program recorded,
// following the timing core's microthread mode: the streams each layer
// probe replays into its layer's public calls.
type probeInput struct {
	prog  *program.Program
	insts uint64
	// branches holds every conditional branch, for the direction
	// predictors.
	branches []branchRec
	mems     []memRec
	// paths holds every terminating branch with a full path history:
	// the Path Cache's input, and the Prediction Cache's keys.
	paths []pathRec
	// promos holds PRB windows at Path Cache promotions, sampled by the
	// seed: the Microthread Builder's input.
	promos []promoRec
	// arch is the program's architectural state at the end of the
	// pass; vp and ap are the trained value and address predictors.
	// Microthreads read them when the execute probe runs.
	arch   *emu.Machine
	vp, ap *vpred.Predictor
}

type branchRec struct {
	pc    isa.Addr
	taken bool
}

type memRec struct {
	addr isa.Addr
	load bool
}

type pathRec struct {
	id   path.ID
	seq  uint64
	miss bool
}

type promoRec struct {
	prb   []uthread.PRBEntry
	seq   uint64
	id    path.ID
	scope int
	hist  []path.TakenBranch
	regs  [isa.NumRegs]isa.Word
}

// record makes the functional pass over prog's first insts
// instructions, mirroring cpu's retirement side: hardware prediction,
// value/address-predictor training into the PRB, path identity and
// Path Cache training at terminating branches.
func (r *runner) record(prog *program.Program, insts uint64) *probeInput {
	cfg := cpu.DefaultConfig()
	in := &probeInput{
		prog: prog,
		arch: emu.New(prog),
		vp:   vpred.New(cfg.VPred),
		ap:   vpred.New(cfg.VPred),
	}
	pred := bpred.New(cfg.Predictor)
	tr := path.NewTracker(cfg.N)
	pc := pathcache.New(cfg.PathCache)
	prb := uthread.NewPRB(cfg.PRBEntries)
	seen := 0
	in.insts = in.arch.Run(insts, func(rec *emu.Record) bool {
		inst := rec.Inst
		var miss bool
		if inst.IsBranch() {
			p := pred.Predict(rec.PC, inst)
			miss = pred.Update(rec.PC, inst, p, rec.Taken, rec.NextPC)
			if inst.IsCondBranch() {
				in.branches = append(in.branches, branchRec{rec.PC, rec.Taken})
			}
		}
		if inst.IsLoad() || inst.IsStore() {
			in.mems = append(in.mems, memRec{rec.EA, inst.IsLoad()})
		}
		var vconf, aconf bool
		if _, ok := inst.Writes(); ok {
			vconf = in.vp.TrainConfident(rec.PC, rec.DstVal, rec.Seq)
		}
		if inst.IsLoad() {
			aconf = in.ap.TrainConfident(rec.PC, rec.SrcVal[0], rec.Seq)
		}
		prb.PushRec(rec, vconf, aconf)
		if inst.IsTerminatingBranch() && tr.Full() {
			id := tr.ID(rec.PC)
			in.paths = append(in.paths, pathRec{id, rec.Seq, miss})
			if ev := pc.Observe(id, miss); ev.Promote {
				pc.SetPromoted(id, true)
				// Reservoir sampling keeps a seed-picked, uniform
				// promosPerProgram of the promotions, or all of them.
				if seen++; len(in.promos) < promosPerProgram {
					in.promos = append(in.promos, snapshot(prb, rec, id, tr, in.arch))
				} else if j := r.rng.Intn(seen); j < promosPerProgram {
					in.promos[j] = snapshot(prb, rec, id, tr, in.arch)
				}
			}
		}
		if rec.Taken {
			tr.Observe(path.TakenBranch{PC: rec.PC, Target: rec.NextPC, Seq: rec.Seq})
		}
		return true
	})
	return in
}

func snapshot(prb *uthread.PRB, rec *emu.Record, id path.ID, tr *path.Tracker, m *emu.Machine) promoRec {
	p := promoRec{seq: rec.Seq, id: id, scope: tr.Scope(rec.PC), regs: m.Regs}
	for s := prb.OldestSeq(); s <= prb.YoungestSeq(); s++ {
		p.prb = append(p.prb, *prb.BySeq(s))
	}
	p.hist = append(p.hist, tr.Branches()...)
	return p
}

// perUnit runs f over every input probeReps times and returns the
// median, over repetitions, of the time f reports per unit of work. A
// repetition without any work is a failed check.
func (r *runner) perUnit(inputs []*probeInput, f func(*probeInput) (time.Duration, uint64)) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		var total time.Duration
		var units uint64
		for _, in := range inputs {
			d, n := f(in)
			total += d
			units += n
		}
		r.check(units > 0, "a layer probe found no work in its recorded inputs")
		xs[i] = float64(total.Nanoseconds()) / float64(max(units, 1))
	}
	return median(xs)
}

// probes records inputs from a seed-picked subset of the workload's
// programs at the workload's budgets, then times each layer's public
// calls on them, one layer at a time.
func (r *runner) probes(ctx context.Context, progs []*program.Program, timing, profile uint64,
	newCache func() *runcache.Cache) error {
	picked := progs
	if len(progs) > probePrograms {
		picked = nil
		for _, i := range r.rng.Perm(len(progs))[:probePrograms] {
			picked = append(picked, progs[i])
		}
	}
	names := make([]string, len(picked))
	inputs := make([]*probeInput, len(picked))
	for i, p := range picked {
		names[i] = p.Name
		inputs[i] = r.record(p, timing)
	}
	fmt.Fprintf(r.log, "layer probes on %v at %d/%d instructions\n", names, timing, profile)

	r.set("emu.ns_per_inst", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		m := emu.New(in.prog)
		t0 := time.Now()
		n := m.Run(in.insts, nil)
		return time.Since(t0), n
	}))
	if err := r.cpuProbes(ctx, inputs); err != nil {
		return err
	}
	r.replayProbes(inputs)
	r.bpredProbes(inputs)
	r.set("pathprof.ns_per_inst", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		cfg := pathprof.DefaultConfig()
		cfg.MaxInsts = profile
		t0 := time.Now()
		p := pathprof.Run(in.prog, cfg)
		return time.Since(t0), p.Insts
	}))
	r.microProbes(inputs)
	r.memoryProbes(inputs)
	r.set("runcache.hit_ns", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		return runcacheHits(ctx, newCache(), in)
	}))
	return nil
}

// cpuProbes times the timing core in each single-thread mode and in SMT
// on live runs, and takes the exact counts from the microthread runs,
// checking that every repetition reproduces them.
func (r *runner) cpuProbes(ctx context.Context, inputs []*probeInput) error {
	var runErr error
	modes := []struct {
		metric string
		mode   cpu.Mode
	}{
		{"cpu.baseline.ns_per_inst", cpu.ModeBaseline},
		{"cpu.perfect_promoted.ns_per_inst", cpu.ModePerfectPromoted},
		{"cpu.microthread.ns_per_inst", cpu.ModeMicrothread},
	}
	for _, md := range modes {
		m := cpu.NewMachine()
		var counts []cpu.Result
		r.set(md.metric, r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
			cfg := cpu.DefaultConfig()
			cfg.Mode = md.mode
			cfg.UsePredictions = md.mode == cpu.ModeMicrothread
			cfg.MaxInsts = in.insts
			t0 := time.Now()
			res, err := m.RunContext(ctx, in.prog, cfg)
			d := time.Since(t0)
			if err != nil {
				runErr = err
				return d, 0
			}
			counts = append(counts, *res)
			return d, res.Insts
		}))
		if runErr != nil {
			return runErr
		}
		if md.mode == cpu.ModeMicrothread {
			r.exactCounts(counts, len(inputs))
		}
	}
	r.set("cpu.microthread.self_ns_per_inst", r.metrics["cpu.microthread.ns_per_inst"]-r.metrics["emu.ns_per_inst"])

	// SMT pairs neighbouring probe programs (a lone program runs
	// against itself) as the SMT study's microthread configuration does.
	xs := make([]float64, probeReps)
	for i := range xs {
		var total time.Duration
		var insts uint64
		for j := 0; j < len(inputs); j += 2 {
			pair := []*program.Program{inputs[j].prog, inputs[(j+1)%len(inputs)].prog}
			cfg := cpu.DefaultConfig()
			cfg.Mode = cpu.ModeMicrothread
			cfg.Pruning, cfg.UsePredictions = true, true
			cfg.MaxInsts = inputs[j].insts
			cfg.SMT.Contexts = []cpu.WorkloadRef{{Bench: pair[0].Name}, {Bench: pair[1].Name}}
			t0 := time.Now()
			res, err := cpu.RunSMT(ctx, pair, cfg)
			total += time.Since(t0)
			if err != nil {
				return err
			}
			for _, c := range res.Contexts {
				insts += c.Insts
			}
		}
		xs[i] = float64(total.Nanoseconds()) / float64(max(insts, 1))
	}
	r.set("cpu.smt.ns_per_inst", median(xs))
	return nil
}

// exactCounts sums the microthread runs' model statistics over one
// repetition's inputs and checks that every repetition matches it.
func (r *runner) exactCounts(runs []cpu.Result, perRep int) {
	sum := func(rs []cpu.Result) [5]uint64 {
		var s [5]uint64
		for _, x := range rs {
			s[0] += x.Insts
			s[1] += x.Cycles
			s[2] += x.Micro.Spawned
			s[3] += x.PathCache.Promotions
			s[4] += x.Build.Builds
		}
		return s
	}
	first := sum(runs[:perRep])
	for i := perRep; i+perRep <= len(runs); i += perRep {
		r.check(sum(runs[i:i+perRep]) == first, "microthread probe repetition %d changed the model's counts", i/perRep)
	}
	r.set("cpu.sim_insts", float64(first[0]))
	r.set("cpu.sim_cycles", float64(first[1]))
	r.set("micro.spawns", float64(first[2]))
	r.set("pathcache.promotions", float64(first[3]))
	r.set("uthread.builds", float64(first[4]))
}

// replayProbes times a tape cursor's record stream and the prediction
// overlay pass of each direction backend over the same tape.
func (r *runner) replayProbes(inputs []*probeInput) {
	tapes := map[*probeInput]*replay.Tape{}
	for _, in := range inputs {
		tapes[in] = replay.Record(in.prog, in.insts)
	}
	r.set("replay.cursor_ns_per_inst", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		t := tapes[in]
		c := t.Cursor()
		defer t.Release(c)
		var rec emu.Record
		var n uint64
		t0 := time.Now()
		for n < in.insts && c.Next(&rec) {
			n++
		}
		return time.Since(t0), n
	}))
	for _, name := range bpred.Backends() {
		metric := "replay.overlay_ns_per_branch." + name
		if !known(metric) {
			continue
		}
		spec := bpred.Spec{Name: name}.Canonical()
		r.set(metric, r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
			t0 := time.Now()
			ov, err := replay.NewOverlay(tapes[in], bpred.DefaultConfig().Canonical(), spec, []uint64{in.insts})
			d := time.Since(t0)
			if !r.check(err == nil, "overlay %s on %s: %v", name, in.prog.Name, err) {
				return d, 0
			}
			return d, ov.Branches()
		}))
	}
}

// bpredProbes replays the recorded conditional branches into each
// direction backend: one Predict and one Update per branch, as the
// backend contract pairs them.
func (r *runner) bpredProbes(inputs []*probeInput) {
	for _, name := range bpred.Backends() {
		metric := "bpred." + name + ".ns_per_branch"
		if !known(metric) {
			continue
		}
		r.set(metric, r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
			b, err := bpred.NewBackend(bpred.Spec{Name: name}, bpred.DefaultConfig())
			if !r.check(err == nil, "backend %s: %v", name, err) {
				return 0, 0
			}
			t0 := time.Now()
			for _, br := range in.branches {
				b.Predict(br.pc)
				b.Update(br.pc, br.taken)
			}
			return time.Since(t0), uint64(len(in.branches))
		}))
	}
}

// microProbes times the microthread structures: Path Cache training,
// Prediction Cache traffic, and the Microthread Builder and routine
// execution on the recorded promotion windows.
func (r *runner) microProbes(inputs []*probeInput) {
	cfg := cpu.DefaultConfig()
	r.set("pathcache.observe_ns", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		c := pathcache.New(cfg.PathCache)
		t0 := time.Now()
		for _, p := range in.paths {
			if ev := c.Observe(p.id, p.miss); ev.Promote {
				c.SetPromoted(p.id, true)
			}
		}
		return time.Since(t0), uint64(len(in.paths))
	}))
	r.set("pcache.write_consume_ns", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		c := pcache.New(cfg.PCacheEntries)
		t0 := time.Now()
		for i, p := range in.paths {
			c.Write(pcache.Entry{PathID: p.id, Seq: p.seq, Taken: p.miss})
			if i >= pcacheLag {
				q := in.paths[i-pcacheLag]
				c.Consume(0, q.id, q.seq)
			}
		}
		return time.Since(t0), uint64(len(in.paths))
	}))

	routines := map[*probeInput][]built{}
	buildNs := r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		b := uthread.NewBuilder(uthread.DefaultBuildConfig(false))
		var total time.Duration
		var out []built
		for _, p := range in.promos {
			prb := uthread.NewPRB(cfg.PRBEntries)
			for _, e := range p.prb {
				prb.Push(e)
			}
			t0 := time.Now()
			rt := b.Build(prb, p.seq, p.id, p.scope, p.hist)
			total += time.Since(t0)
			if rt != nil {
				out = append(out, built{rt, p.regs})
			}
		}
		routines[in] = out
		return total, uint64(len(in.promos))
	})
	r.set("uthread.build_us", buildNs/1e3)
	r.set("uthread.execute_ns", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		var regs *[isa.NumRegs]isa.Word
		env := uthread.Env{
			ReadReg:      func(x isa.Reg) isa.Word { return regs[x] },
			LoadMem:      in.arch.Mem.Load,
			PredictValue: in.vp.Predict,
			PredictAddr:  in.ap.Predict,
		}
		var n uint64
		t0 := time.Now()
		for round := 0; round < executeRounds; round++ {
			for i := range routines[in] {
				regs = &routines[in][i].regs
				uthread.Execute(routines[in][i].r, &env)
				n++
			}
		}
		return time.Since(t0), n
	}))
}

// built is a routine the build probe made, with the register file of
// its promotion point for the execute probe.
type built struct {
	r    *uthread.Routine
	regs [isa.NumRegs]isa.Word
}

// memoryProbes replays the recorded data addresses into an L1-shaped
// cache and the loads into the memory hierarchy.
func (r *runner) memoryProbes(inputs []*probeInput) {
	mc := cpu.DefaultConfig().Mem
	r.set("cache.access_ns", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		c := cache.New(cache.Config{SizeWords: mc.L1SizeWords, Ways: mc.L1Ways, LineWords: mc.LineWords})
		t0 := time.Now()
		for _, m := range in.mems {
			c.Access(m.addr)
		}
		return time.Since(t0), uint64(len(in.mems))
	}))
	r.set("mem.load_ns", r.perUnit(inputs, func(in *probeInput) (time.Duration, uint64) {
		s := mem.New(mc)
		var now, n uint64
		t0 := time.Now()
		for _, m := range in.mems {
			if m.load {
				now += 2
				s.LoadLatency(m.addr, now)
				n++
			}
		}
		return time.Since(t0), n
	}))
}

// runcacheHits fills c with one entry per recorded promotion key and
// times Do serving them back as hits.
func runcacheHits(ctx context.Context, c *runcache.Cache, in *probeInput) (time.Duration, uint64) {
	const entries, rounds = 64, 16
	keys := make([]runcache.Key, entries)
	for i := range keys {
		keys[i] = runcache.KeyOf("probe", in.prog.Fingerprint(), i)
		_, _ = c.Do(ctx, keys[i], func() (any, error) { return i, nil })
	}
	miss := func() (any, error) { return nil, fmt.Errorf("runcache probe: unexpected miss") }
	var n uint64
	t0 := time.Now()
	for round := 0; round < rounds; round++ {
		for _, k := range keys {
			if _, err := c.Do(ctx, k, miss); err == nil {
				n++
			}
		}
	}
	return time.Since(t0), n
}
