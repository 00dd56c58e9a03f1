package uthread

import (
	"fmt"
	"strings"

	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// MicroInst is one instruction of a microthread routine, carrying the
// metadata the SSMT core needs to execute it.
type MicroInst struct {
	Inst isa.Inst
	// OrigPC is the primary-thread PC the instruction was extracted from
	// (or, for Vp_Inst/Ap_Inst, the PC of the pruned instruction whose
	// predictor entry must be queried).
	OrigPC isa.Addr
	// Ahead is the predictor ahead-distance for Vp_Inst/Ap_Inst: how many
	// dynamic instances of OrigPC lie between the last trained instance
	// at spawn time and the instance being pre-computed.
	Ahead int
	// BranchOp, for the Store_PCache instruction, is the original
	// terminating branch opcode; executing Store_PCache evaluates it on
	// Src1/Src2 to produce the outcome.
	BranchOp isa.Op
}

// Routine is a constructed microthread: the instruction sequence plus the
// spawn metadata the SSMT core needs (Sections 4.2.2 and 4.3).
type Routine struct {
	// PathID identifies the difficult path the routine predicts.
	PathID path.ID
	// BranchPC is the terminating branch being pre-computed.
	BranchPC isa.Addr
	// BranchTarget is the taken target for conditional terminating
	// branches (indirect branches compute their target).
	BranchTarget isa.Addr
	// SpawnPC is the primary-thread instruction whose fetch triggers the
	// spawn.
	SpawnPC isa.Addr
	// SeqDelta is the dynamic-instruction separation between the spawn
	// point and the terminating branch, fixed at construction time; the
	// Store_PCache write targets Seq(spawn) + SeqDelta.
	SeqDelta uint64
	// Insts is the routine body; the last instruction is Store_PCache.
	Insts []MicroInst
	// LiveIns are the registers the routine reads from the primary
	// thread's architectural state at spawn.
	LiveIns []isa.Reg
	// ExpectedTakens lists the PCs of the taken branches the primary
	// thread must execute between the spawn point and the terminating
	// branch, in order. The abort mechanism (Path_History) compares the
	// front end's taken-branch stream against this sequence; a deviation
	// aborts the spawn.
	ExpectedTakens []isa.Addr
	// PrefixTakens lists the PCs of the path's taken branches that
	// precede the spawn point. The spawn-time Path_History screen
	// compares them against the front end's recent taken-branch history;
	// a mismatch means this dynamic instance of the spawn PC is not on
	// the routine's path, and the spawn is aborted before a microcontext
	// is allocated (the paper's 67% bucket).
	PrefixTakens []isa.Addr
	// MemDepSpeculative reports that construction terminated at a memory
	// dependence and the routine speculates on memory beyond it.
	MemDepSpeculative bool
	// DepChain is the longest dependence chain through the routine in
	// instructions (Figure 8's metric).
	DepChain int
	// Pruned reports whether pruning was applied during construction.
	Pruned bool
	// PrunedSubtrees counts the Vp_Inst/Ap_Inst substitutions made.
	PrunedSubtrees int
	// Sched is the scheduling decode of Insts, one entry per
	// instruction, computed once at construction so the timing core
	// does not re-derive it on every spawn.
	Sched []SchedInst
}

// SchedKind classifies a routine instruction for scheduling.
type SchedKind uint8

// Scheduling kinds: loads book a functional unit and an L1 port and pay
// the memory latency; predictor queries (Vp_Inst, Ap_Inst) pay the
// predictor's latency; everything else pays its opcode latency.
const (
	SchedALU SchedKind = iota
	SchedLoad
	SchedPredict
)

// SchedInst is one routine instruction's scheduling decode. Its source
// operands are resolved against the routine itself: a source some
// earlier routine instruction wrote becomes that producer's index, and
// a primary-thread register read before any routine write becomes a
// live-in. Reads of RZero and of microcontext temporaries never written
// before use carry no dependence and are dropped.
type SchedInst struct {
	Kind SchedKind
	// Lat is isa.Latency of the opcode.
	Lat  uint8
	NSrc uint8
	Src  [2]SchedSrc
}

// SchedSrc is one resolved source operand: the value is produced by
// routine instruction Prod when Prod >= 0, else it is live-in register
// Reg of the primary thread.
type SchedSrc struct {
	Prod int32
	Reg  isa.Reg
}

// decodeSched computes the scheduling decode of insts.
func decodeSched(insts []MicroInst) []SchedInst {
	out := make([]SchedInst, len(insts))
	var prod [MicroRegs]int32
	for i := range prod {
		prod[i] = -1
	}
	var buf [2]isa.Reg
	for idx := range insts {
		in := &insts[idx].Inst
		si := &out[idx]
		si.Lat = uint8(isa.Latency(in.Op))
		switch {
		case in.IsLoad():
			si.Kind = SchedLoad
		case in.Op == isa.OpVpInst || in.Op == isa.OpApInst:
			si.Kind = SchedPredict
		}
		n := in.ReadsInto(&buf)
		for _, rg := range buf[:n] {
			switch {
			case rg == isa.RZero:
			case prod[rg] >= 0:
				si.Src[si.NSrc] = SchedSrc{Prod: prod[rg]}
				si.NSrc++
			case rg < isa.NumRegs:
				si.Src[si.NSrc] = SchedSrc{Prod: -1, Reg: rg}
				si.NSrc++
			}
		}
		if dst, ok := in.Writes(); ok {
			prod[dst] = int32(idx)
		}
	}
	return out
}

// Size returns the routine length in instructions.
func (r *Routine) Size() int { return len(r.Insts) }

// String renders the routine for debugging.
func (r *Routine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routine path=%x branch=%d spawn=%d delta=%d livein=%v chain=%d\n",
		uint64(r.PathID), r.BranchPC, r.SpawnPC, r.SeqDelta, r.LiveIns, r.DepChain)
	for i, mi := range r.Insts {
		fmt.Fprintf(&b, "  %2d: %v  (from %d)\n", i, mi.Inst, mi.OrigPC)
	}
	return b.String()
}

// computeDepChain returns the longest register-dependence chain through
// a routine, in instructions, from its scheduling decode. Live-in values
// have depth 0.
func computeDepChain(sched []SchedInst) int {
	depth := make([]int, len(sched))
	longest := 0
	for i, si := range sched {
		d := 0
		for _, src := range si.Src[:si.NSrc] {
			if src.Prod >= 0 && depth[src.Prod] > d {
				d = depth[src.Prod]
			}
		}
		depth[i] = d + 1
		longest = max(longest, d+1)
	}
	return longest
}
