package cpu

import (
	"math"
	"math/bits"
	"slices"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/obs"
	"dpbp/internal/pcache"
	"dpbp/internal/uthread"
)

// takenRingSize bounds the front end's Path_History register; path
// prefixes are at most N taken branches, far below this.
const takenRingSize = 64

// issueRec remembers a microthread instruction's booked resources so an
// abort can refund the ones that have not executed yet.
type issueRec struct {
	cycle  uint64
	isLoad bool
}

// mctx is one microcontext: the state of an active spawned microthread.
type mctx struct {
	active    bool
	r         *uthread.Routine
	spawnSeq  uint64
	targetSeq uint64
	expIdx    int
	// watch holds the routine's loaded addresses, sorted for binary
	// search; its backing array is reused across spawns. Routines load a
	// handful of words, so a flat sorted slice beats the per-spawn map it
	// replaced on both lookup cost and allocation.
	watch    []isa.Addr
	issues   []issueRec
	delivery uint64
	wrote    bool // a Prediction Cache entry was written for this spawn
}

// trySpawns attempts to spawn every routine whose spawn point is the
// instruction about to be fetched at pc (sequence number seq, fetch cycle
// fc). Spawns that cannot get a microcontext are dropped — the paper's
// "aborted before allocating a microcontext" bucket.
//
//dpbp:speculative
func (m *Machine) trySpawns(pc isa.Addr, seq uint64, fc uint64) {
	cands := m.uram.SpawnCandidates(pc)
	if len(cands) == 0 {
		return
	}
	if m.throttled {
		m.res.Micro.SkippedByThrottle += uint64(len(cands))
		return
	}
	for _, r := range cands {
		if m.uram.Ready(r.PathID) > fc {
			continue // still being built
		}
		m.res.Micro.AttemptedSpawns++
		if m.obs != nil {
			m.obs.Emit(obs.KindSpawnAttempt, uint64(r.PathID), seq, 0)
		}
		// Path_History screen: this dynamic instance of the spawn PC
		// is only on the routine's path if the most recent taken
		// branches match the path prefix before the spawn point.
		// Mismatches are aborted before a microcontext is allocated.
		if m.cfg.AbortEnabled && !m.prefixMatches(r.PrefixTakens) {
			m.res.Micro.PrefixMismatchDrops++
			if m.obs != nil {
				m.obs.Emit(obs.KindSpawnDropPrefix, uint64(r.PathID), seq, 0)
			}
			continue
		}
		ci := m.freeContext()
		if ci < 0 {
			m.res.Micro.NoContextDrops++
			if m.obs != nil {
				m.obs.Emit(obs.KindSpawnDropNoContext, uint64(r.PathID), seq, 0)
			}
			continue
		}
		// SMT: microcontexts are a machine-wide budget. This thread has a
		// free slot of its own, but co-runners' in-flight microthreads may
		// hold the shared allocation — a distinct denial cause with its
		// own counter, checked after the local one so solo accounting is
		// untouched (solo, the local array is the whole budget and the
		// shared check can never fire).
		if m.smt != nil && m.smt.active >= m.smt.limit {
			m.res.Micro.CoRunnerDenied++
			if m.obs != nil {
				m.obs.Emit(obs.KindSpawnDropCoRunner, uint64(r.PathID), seq, 0)
			}
			continue
		}
		m.spawn(ci, r, seq, fc)
	}
}

// prefixMatches reports whether the front end's recent taken-branch
// history ends with the given prefix.
//
//dpbp:speculative
func (m *Machine) prefixMatches(prefix []isa.Addr) bool {
	n := uint64(len(prefix))
	if n == 0 {
		return true
	}
	if m.takenCnt < n {
		return false
	}
	for i := uint64(0); i < n; i++ {
		if m.takenRing[(m.takenCnt-n+i)%takenRingSize] != prefix[i] {
			return false
		}
	}
	return true
}

// freeContext returns the index of the lowest-numbered free microcontext,
// or -1 when all are active.
//
//dpbp:speculative
func (m *Machine) freeContext() int {
	if m.activeCtxs == len(m.ctxs) {
		return -1
	}
	for w, bw := range m.activeBits {
		if bw != ^uint64(0) {
			if i := w*64 + bits.TrailingZeros64(^bw); i < len(m.ctxs) {
				return i
			}
		}
	}
	return -1
}

// activate and deactivate keep the active count, the bitmask, and
// nextTarget in sync with ctxs[i].active; every transition goes through
// them.
//
//dpbp:speculative
func (m *Machine) activate(i int) {
	m.ctxs[i].active = true
	m.activeCtxs++
	m.activeBits[i>>6] |= 1 << (i & 63)
	if t := m.ctxs[i].targetSeq; t < m.nextTarget {
		m.nextTarget = t
	}
	if m.smt != nil {
		m.smt.active++
	}
	if h := testHookCtxTransition; h != nil {
		h(m)
	}
}

//dpbp:speculative
func (m *Machine) deactivate(i int) {
	m.ctxs[i].active = false
	m.activeCtxs--
	m.activeBits[i>>6] &^= 1 << (i & 63)
	if m.ctxs[i].targetSeq == m.nextTarget {
		m.nextTarget = m.minTarget()
	}
	if m.smt != nil {
		m.smt.active--
	}
	if h := testHookCtxTransition; h != nil {
		h(m)
	}
}

// minTarget returns the minimum targetSeq over active contexts, or
// math.MaxUint64 when none is active.
//
//dpbp:speculative
func (m *Machine) minTarget() uint64 {
	lo := uint64(math.MaxUint64)
	for w, bw := range m.activeBits {
		for bw != 0 {
			i := w*64 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			lo = min(lo, m.ctxs[i].targetSeq)
		}
	}
	return lo
}

// testHookCtxTransition, when non-nil, runs after every microcontext
// activation and deactivation. Tests use it to check the incremental
// bookkeeping (nextTarget) against a recomputation.
var testHookCtxTransition func(m *Machine)

// spawn allocates a microcontext, functionally executes the routine
// against the primary thread's architectural state at the spawn point, and
// schedules its instructions through the shared execution resources.
//
//dpbp:speculative
func (m *Machine) spawn(ci int, r *uthread.Routine, seq, fc uint64) {
	ctx := &m.ctxs[ci]
	m.res.Micro.Spawned++
	if m.obs != nil {
		m.obs.Emit(obs.KindSpawn, uint64(r.PathID), seq, uint64(ci))
	}
	m.windowSpawns++

	// Functional execution against spawn-point state: the emulator has
	// executed exactly the instructions before seq, which is the
	// architectural state the paper's spawn-point selection guarantees.
	// The Env is the machine's shared one (built in Reset); Execute's
	// LoadedEAs use its scratch buffer and are copied into the context's
	// watch list below, before the next spawn can overwrite them.
	fr := uthread.Execute(r, &m.uenv)
	m.res.Micro.MicroInsts += uint64(fr.Executed)

	// Timing: schedule the routine's instructions through the shared
	// calendars. Live-ins become ready when their primary-thread
	// producers complete; in-routine values chain through done, the
	// completion cycle of each routine instruction.
	start := fc + uint64(m.cfg.SpawnOverhead)
	if cap(m.uDone) < len(r.Sched) {
		m.uDone = make([]uint64, len(r.Sched))
	}
	done := m.uDone[:len(r.Sched)]
	issues := ctx.issues[:0]
	loadIdx := 0
	var complete uint64
	for idx := range r.Sched {
		si := &r.Sched[idx]
		// Microcontext queues feed a bounded number of instructions
		// into the machine per cycle.
		ready := start + uint64(idx/m.cfg.InjectPerCycle)
		for _, src := range si.Src[:si.NSrc] {
			t := m.regReady[src.Reg] // live-in from the primary thread
			if src.Prod >= 0 {
				t = done[src.Prod]
			}
			if t > ready {
				ready = t
			}
		}
		var issue uint64
		switch si.Kind {
		case uthread.SchedLoad:
			issue = earliest2(m.fus, m.ports, ready)
			ea := fr.LoadedEAs[loadIdx]
			loadIdx++
			complete = issue + uint64(m.msys.LoadLatency(ea, issue))
			issues = append(issues, issueRec{cycle: issue, isLoad: true})
		case uthread.SchedPredict:
			issue = m.fus.earliest(ready)
			complete = issue + 2 // predictor query
			issues = append(issues, issueRec{cycle: issue})
		default:
			issue = m.fus.earliest(ready)
			complete = issue + uint64(si.Lat)
			issues = append(issues, issueRec{cycle: issue})
		}
		done[idx] = complete
	}

	watch := append(ctx.watch[:0], fr.LoadedEAs...)
	slices.Sort(watch)

	targetSeq := seq + r.SeqDelta
	*ctx = mctx{
		r:         r,
		spawnSeq:  seq,
		targetSeq: targetSeq,
		watch:     watch,
		issues:    issues,
		delivery:  complete,
	}
	m.activate(ci)

	if m.cfg.UsePredictions {
		m.predCache.Write(pcache.Entry{
			Ctx:    m.ctxID,
			PathID: r.PathID,
			Seq:    targetSeq,
			Taken:  fr.Taken,
			Target: fr.Target,
			Ready:  complete,
		})
		ctx.wrote = true
		if m.obs != nil {
			m.obs.Emit(obs.KindPCacheWrite, uint64(r.PathID), targetSeq, complete)
		}
	}
}

// wrongPathSpawns walks the instructions the front end would have fetched
// down a mispredicted path — following fall-through and direct jumps and
// calls, stopping at the first conditional or indirect branch (whose
// wrong-path direction the model cannot know) — and performs spawn
// attempts for them. The sequence numbers assigned approximate the
// renamer's reassignment after recovery; the resulting contexts are
// monitored against the correct-path stream and abort on its first
// deviation from their expected path.
//
//dpbp:speculative
func (m *Machine) wrongPathSpawns(start isa.Addr, seq uint64, fc uint64) {
	limit := m.cfg.RedirectPenalty * m.cfg.FetchWidth / 2
	if limit > 64 {
		limit = 64
	}
	pc := start
	for i := 0; i < limit; i++ {
		if !m.prog.Valid(pc) {
			return
		}
		before := m.res.Micro.AttemptedSpawns
		m.trySpawns(pc, seq, fc)
		m.res.Micro.WrongPathAttempts += m.res.Micro.AttemptedSpawns - before

		switch m.decode[pc].Kind {
		case isa.KindJmp, isa.KindCall:
			pc = m.prog.Code[pc].Target
		case isa.KindCond, isa.KindJmpInd, isa.KindRet:
			return // direction or target unknowable on the wrong path
		default:
			pc++
		}
	}
}

// monitorContexts advances every active microcontext past the fetched
// instruction rec: memory-dependence violation detection, completion at
// the target branch, and the Path_History abort check on taken branches.
//
//dpbp:speculative
func (m *Machine) monitorContexts(rec *emu.Record, fc uint64, d *isa.Decoded) {
	// The record's properties are loop-invariant; evaluate them once,
	// not per active context.
	isStore := d.Kind == isa.KindStore
	abortable := m.cfg.AbortEnabled && rec.Taken && d.Branch
	for w, bw := range m.activeBits {
		for bw != 0 {
			i := w*64 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			ctx := &m.ctxs[i]
			if rec.Seq <= ctx.spawnSeq {
				continue
			}
			if isStore && watchContains(ctx.watch, rec.EA) {
				// The primary thread stored to an address the
				// microthread read at spawn: the speculated memory
				// state was stale. Rebuild the routine (Section 4.2.4);
				// the stale prediction itself stays and simply risks
				// being wrong.
				m.res.Micro.MemDepViolations++
				if m.obs != nil {
					m.obs.Emit(obs.KindMemDepViolation, uint64(ctx.r.PathID), rec.Seq, uint64(rec.EA))
				}
				if m.cfg.RebuildOnViolation {
					m.uram.MarkRebuild(ctx.r.PathID)
				}
			}
			if rec.Seq >= ctx.targetSeq {
				m.deactivate(i)
				m.res.Micro.Completed++
				if m.obs != nil {
					m.obs.Emit(obs.KindComplete, uint64(ctx.r.PathID), ctx.spawnSeq, uint64(i))
				}
				continue
			}
			if abortable {
				if ctx.expIdx < len(ctx.r.ExpectedTakens) && ctx.r.ExpectedTakens[ctx.expIdx] == rec.PC {
					ctx.expIdx++
				} else {
					m.abortContext(i, fc)
				}
			}
		}
	}
}

// abortContext reclaims a microcontext whose primary thread left the
// predicted path: unexecuted instructions are refunded from the resource
// calendars (instructions already in the window cannot be aborted, per
// Section 4.3.2), and an undelivered prediction is cancelled.
//
//dpbp:speculative
func (m *Machine) abortContext(ci int, fc uint64) {
	ctx := &m.ctxs[ci]
	m.res.Micro.AbortedActive++
	if m.obs != nil {
		m.obs.Emit(obs.KindAbortActive, uint64(ctx.r.PathID), ctx.spawnSeq, uint64(ci))
	}
	for _, ir := range ctx.issues {
		if ir.cycle > fc {
			m.fus.remove(ir.cycle)
			if ir.isLoad {
				m.ports.remove(ir.cycle)
			}
		}
	}
	if ctx.wrote && ctx.delivery > fc {
		m.predCache.Remove(m.ctxID, ctx.r.PathID, ctx.targetSeq)
	}
	m.deactivate(ci)
}

// watchContains reports whether the sorted watch list holds ea.
//
//dpbp:speculative
func watchContains(watch []isa.Addr, ea isa.Addr) bool {
	_, ok := slices.BinarySearch(watch, ea)
	return ok
}
