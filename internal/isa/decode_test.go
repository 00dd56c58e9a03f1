package isa

import "testing"

// wantKind is the emulator's dispatch written out as the predicate chain
// it was before Decode existed, in its original test order.
func wantKind(in Inst) Kind {
	switch {
	case IsALU(in.Op):
		return KindALU
	case in.IsLoad():
		return KindLoad
	case in.IsStore():
		return KindStore
	case in.IsCondBranch():
		return KindCond
	case in.Op == OpJmp:
		return KindJmp
	case in.Op == OpJmpInd:
		return KindJmpInd
	case in.IsCall():
		return KindCall
	case in.IsReturn():
		return KindRet
	}
	return KindBad
}

// TestDecodeMatchesPredicates checks Decode against the Inst predicates
// it replaces, for every opcode (micro-instructions and out-of-range
// opcodes included) and for destinations both RZero and not, so a table
// read answers exactly what the predicates would.
func TestDecodeMatchesPredicates(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := Op(i)
		for _, dst := range []Reg{RZero, 7} {
			in := Inst{Op: op, Dst: dst, Src1: 4, Src2: 5, Target: 9}
			d := Decode(in)
			if k := wantKind(in); d.Kind != k {
				t.Errorf("%v dst=r%d: kind = %d, want %d", op, dst, d.Kind, k)
			}
			if d.Branch != in.IsBranch() || d.Term != in.IsTerminatingBranch() {
				t.Errorf("%v: branch/term = %v/%v, want %v/%v",
					op, d.Branch, d.Term, in.IsBranch(), in.IsTerminatingBranch())
			}
			if wdst, writes := in.Writes(); d.Writes != writes || d.Dst != wdst {
				t.Errorf("%v dst=r%d: writes = %v r%d, want %v r%d", op, dst, d.Writes, d.Dst, writes, wdst)
			}
			var src [2]Reg
			if n := in.ReadsInto(&src); int(d.NSrc) != n || d.Src != src {
				t.Errorf("%v: sources = %v[:%d], want %v[:%d]", op, d.Src, d.NSrc, src, n)
			}
			if int(d.Lat) != Latency(op) {
				t.Errorf("%v: lat = %d, want %d", op, d.Lat, Latency(op))
			}
		}
	}
}
