package cpu

import (
	"testing"

	"dpbp/internal/isa"
)

// TestDecodeMatchesPredicates checks the per-PC decode table against the
// isa.Inst predicates it replaces, for every opcode (micro-instructions
// and out-of-range opcodes included) and for destinations both RZero and
// not, so the hot loop's table reads answer exactly what the predicates
// would.
func TestDecodeMatchesPredicates(t *testing.T) {
	for op := isa.Op(0); op < isa.Op(255); op++ {
		for _, dst := range []isa.Reg{isa.RZero, 7} {
			in := isa.Inst{Op: op, Dst: dst, Src1: 4, Src2: 5, Target: 9}
			pi := decodePC(in)
			check := func(name string, got, want bool) {
				if got != want {
					t.Errorf("%v dst=r%d: %s = %v, want %v", op, dst, name, got, want)
				}
			}
			check("branch", pi.has(piBranch), in.IsBranch())
			check("cond", pi.has(piCond), in.IsCondBranch())
			check("term", pi.has(piTerm), in.IsTerminatingBranch())
			check("load", pi.has(piLoad), in.IsLoad())
			check("store", pi.has(piStore), in.IsStore())
			wdst, writes := in.Writes()
			check("writes", pi.has(piWrites), writes)
			if writes && pi.dst != wdst {
				t.Errorf("%v dst=r%d: dst = r%d, want r%d", op, dst, pi.dst, wdst)
			}
			if int(pi.lat) != isa.Latency(op) {
				t.Errorf("%v: lat = %d, want %d", op, pi.lat, isa.Latency(op))
			}
		}
	}
}

// TestDecodeProgramReusesTable checks that re-decoding for a shorter
// program reuses the backing array and covers exactly the new code.
func TestDecodeProgramReusesTable(t *testing.T) {
	long := []isa.Inst{{Op: isa.OpAdd, Dst: 4}, {Op: isa.OpLoad, Dst: 5}, {Op: isa.OpBeqz}}
	short := []isa.Inst{{Op: isa.OpStore}}
	tab := decodeProgram(nil, long)
	if len(tab) != len(long) || !tab[2].has(piTerm) {
		t.Fatalf("decode(long) = %+v", tab)
	}
	again := decodeProgram(tab, short)
	if len(again) != 1 || &again[0] != &tab[0] || !again[0].has(piStore) || again[0].has(piWrites) {
		t.Fatalf("decode(short) = %+v, reused=%v", again, &again[0] == &tab[0])
	}
}
