package isa

// Kind is an instruction's execution class: the mutually exclusive cases
// the emulator dispatches on.
type Kind uint8

// Execution kinds, in the order Decode tests for them.
const (
	KindALU Kind = iota // IsALU: EvalALU computes the result
	KindLoad
	KindStore
	KindCond // IsCondBranch
	KindJmp
	KindJmpInd
	KindCall
	KindRet
	KindBad // unexecutable in primary code: micro-instructions, invalid ops
)

// Decoded is the static decode of one instruction: every per-PC answer
// the emulator, the timing core and the path profiler ask of an Inst,
// folded into one small table entry (see program.Program.Decoded).
type Decoded struct {
	Kind Kind
	// Branch is IsBranch; Term is IsTerminatingBranch.
	Branch, Term bool
	// Writes and Dst are what Writes returns.
	Writes bool
	Dst    Reg
	// Lat is Latency(Op).
	Lat uint8
	// NSrc and Src are what ReadsInto reports; Src is zero past NSrc,
	// so reading both slots of a register file yields zero for the
	// unused ones.
	NSrc uint8
	Src  [2]Reg
}

// Decode computes in's static decode. It is a pure function of in.
func Decode(in Inst) Decoded {
	d := Decoded{
		Kind:   KindBad,
		Branch: in.IsBranch(),
		Term:   in.IsTerminatingBranch(),
		Lat:    uint8(Latency(in.Op)),
	}
	switch {
	case IsALU(in.Op):
		d.Kind = KindALU
	case in.Op == OpLoad:
		d.Kind = KindLoad
	case in.Op == OpStore:
		d.Kind = KindStore
	case in.IsCondBranch():
		d.Kind = KindCond
	case in.Op == OpJmp:
		d.Kind = KindJmp
	case in.Op == OpJmpInd:
		d.Kind = KindJmpInd
	case in.Op == OpCall:
		d.Kind = KindCall
	case in.Op == OpRet:
		d.Kind = KindRet
	}
	d.Dst, d.Writes = in.Writes()
	d.NSrc = uint8(in.ReadsInto(&d.Src))
	return d
}
