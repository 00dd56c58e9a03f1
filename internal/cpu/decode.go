package cpu

import "dpbp/internal/isa"

// pcInfo is the timing core's static decode of one primary instruction:
// every isa.Inst predicate the per-record path asks — fetch, execute,
// branch handling, retirement side channel, microthread monitoring —
// folded into one small table entry. Reset builds the table once per
// program, so the hot loop reads one entry per retired instruction
// instead of re-deriving the predicates at each consumer.
type pcInfo struct {
	flags uint8
	// dst is the destination register when flags&piWrites is set.
	dst isa.Reg
	// lat is the execution latency (isa.Latency) of a non-memory op.
	lat uint8
}

// pcInfo flags, one per isa.Inst predicate.
const (
	piBranch uint8 = 1 << iota // IsBranch
	piCond                     // IsCondBranch
	piTerm                     // IsTerminatingBranch
	piLoad                     // IsLoad
	piStore                    // IsStore
	piWrites                   // Writes reports a destination
)

// decodePC computes in's pcInfo.
func decodePC(in isa.Inst) pcInfo {
	pi := pcInfo{lat: uint8(isa.Latency(in.Op))}
	set := func(cond bool, f uint8) {
		if cond {
			pi.flags |= f
		}
	}
	set(in.IsBranch(), piBranch)
	set(in.IsCondBranch(), piCond)
	set(in.IsTerminatingBranch(), piTerm)
	set(in.IsLoad(), piLoad)
	set(in.IsStore(), piStore)
	if dst, ok := in.Writes(); ok {
		pi.flags |= piWrites
		pi.dst = dst
	}
	return pi
}

func (pi pcInfo) has(f uint8) bool { return pi.flags&f != 0 }

// decodeProgram fills dst (reusing its backing array) with the pcInfo
// of every instruction in code.
func decodeProgram(dst []pcInfo, code []isa.Inst) []pcInfo {
	if cap(dst) < len(code) {
		dst = make([]pcInfo, len(code))
	}
	dst = dst[:len(code)]
	for a, in := range code {
		dst[a] = decodePC(in)
	}
	return dst
}
