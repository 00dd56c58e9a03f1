package uthread

import (
	"testing"

	"dpbp/internal/isa"
	"dpbp/internal/path"
)

func routineFor(id path.ID, spawn isa.Addr) *Routine {
	return &Routine{
		PathID:  id,
		SpawnPC: spawn,
		Insts: []MicroInst{{
			Inst:     isa.Inst{Op: isa.OpStorePCache, Src1: 4},
			BranchOp: isa.OpBnez,
		}},
	}
}

func TestMicroRAMInstallLookupRemove(t *testing.T) {
	m := NewMicroRAM(4, 128)
	r := routineFor(1, 100)
	if !m.Install(r, 7) {
		t.Fatal("install refused with space available")
	}
	if m.Lookup(1) != r || m.Ready(1) != 7 {
		t.Errorf("lookup = %p ready %d, want %p ready 7", m.Lookup(1), m.Ready(1), r)
	}
	if m.Len() != 1 || m.Cap() != 4 {
		t.Errorf("len/cap = %d/%d", m.Len(), m.Cap())
	}
	m.Remove(1)
	if m.Lookup(1) != nil || m.Ready(1) != 0 || m.Len() != 0 {
		t.Error("routine survived removal")
	}
	m.Remove(1) // no-op
	if m.Len() != 0 {
		t.Error("double-remove changed the MicroRAM")
	}
}

func TestMicroRAMRefusesWhenFull(t *testing.T) {
	m := NewMicroRAM(2, 64)
	m.Install(routineFor(1, 10), 0)
	m.Install(routineFor(2, 20), 0)
	if m.Install(routineFor(3, 30), 0) {
		t.Fatal("install accepted beyond capacity")
	}
	if m.Lookup(3) != nil || len(m.SpawnCandidates(30)) != 0 {
		t.Error("refused routine was stored")
	}
	// Replacing an existing path is allowed even at capacity, and takes
	// the new routine's ready cycle.
	if !m.Install(routineFor(2, 25), 9) {
		t.Error("replacement refused at capacity")
	}
	if got := m.Lookup(2); got == nil || got.SpawnPC != 25 || m.Ready(2) != 9 {
		t.Error("replacement did not take effect")
	}
}

func TestMicroRAMSpawnIndex(t *testing.T) {
	m := NewMicroRAM(8, 100)
	a := routineFor(1, 50)
	b := routineFor(2, 50) // same spawn PC, different path
	c := routineFor(3, 60)
	m.Install(a, 0)
	m.Install(b, 0)
	m.Install(c, 0)
	if got := m.SpawnCandidates(50); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("candidates at 50 = %v, want [a b] in install order", got)
	}
	if got := m.SpawnCandidates(60); len(got) != 1 || got[0] != c {
		t.Errorf("candidates at 60 wrong")
	}
	if got := m.SpawnCandidates(99); len(got) != 0 {
		t.Errorf("candidates at 99 = %v, want none", got)
	}
	if got := m.SpawnCandidates(1000); got != nil {
		t.Errorf("candidates beyond the code image = %v, want none", got)
	}
	// Reinstalling a path moves its routine to the end of its list.
	a2 := routineFor(1, 50)
	m.Install(a2, 0)
	if got := m.SpawnCandidates(50); len(got) != 2 || got[0] != b || got[1] != a2 {
		t.Errorf("reinstall order = %v, want [b a2]", got)
	}
	// Removal updates the index.
	m.Remove(1)
	if got := m.SpawnCandidates(50); len(got) != 1 || got[0] != b {
		t.Errorf("index stale after removal: %v", got)
	}
	// Replacement with a different spawn PC moves the index entry.
	b2 := routineFor(2, 70)
	m.Install(b2, 0)
	if got := m.SpawnCandidates(50); len(got) != 0 {
		t.Errorf("old spawn index entry survived replacement: %v", got)
	}
	if got := m.SpawnCandidates(70); len(got) != 1 || got[0] != b2 {
		t.Errorf("new spawn index entry missing")
	}
}

func TestMicroRAMRebuildFlag(t *testing.T) {
	m := NewMicroRAM(4, 64)
	m.Install(routineFor(1, 10), 0)
	if m.NeedsRebuild(1) {
		t.Error("fresh routine flagged for rebuild")
	}
	m.MarkRebuild(1)
	if !m.NeedsRebuild(1) {
		t.Error("rebuild flag not set")
	}
	if m.NeedsRebuild(1) {
		t.Error("NeedsRebuild did not clear the flag")
	}
	// Marking an absent path is a no-op.
	m.MarkRebuild(99)
	if m.NeedsRebuild(99) {
		t.Error("rebuild flag on absent path")
	}
	// Reinstalling clears a pending flag.
	m.MarkRebuild(1)
	m.Install(routineFor(1, 11), 0)
	if m.NeedsRebuild(1) {
		t.Error("install did not clear the rebuild flag")
	}
	// Removal drops a pending flag with the routine.
	m.MarkRebuild(1)
	m.Remove(1)
	m.Install(routineFor(1, 11), 0)
	if m.NeedsRebuild(1) {
		t.Error("rebuild flag survived removal")
	}
}

// TestResetDropsSpawnIndex checks that Reset empties the spawn index and
// resizes it for the next program's code image, so no routine of the
// previous run can spawn and every address of the new image is indexed.
func TestResetDropsSpawnIndex(t *testing.T) {
	m := NewMicroRAM(4, 8)
	if !m.Install(routineFor(1, 2), 0) {
		t.Fatal("install refused with free capacity")
	}
	m.Reset(4)
	if m.Len() != 0 || m.Lookup(1) != nil {
		t.Fatalf("routines survived Reset: %d", m.Len())
	}
	if got := m.SpawnCandidates(2); len(got) != 0 {
		t.Fatalf("stale spawn index survived Reset: %v", got)
	}
	m.Reset(16)
	if !m.Install(routineFor(2, 15), 0) || len(m.SpawnCandidates(15)) != 1 {
		t.Fatal("index not resized for a larger code image")
	}
}

func TestExecutePanicsOnMalformedRoutine(t *testing.T) {
	env := &Env{
		ReadReg:      func(isa.Reg) isa.Word { return 0 },
		LoadMem:      func(isa.Addr) isa.Word { return 0 },
		PredictValue: func(isa.Addr, int) (isa.Word, bool) { return 0, false },
		PredictAddr:  func(isa.Addr, int) (isa.Word, bool) { return 0, false },
	}
	t.Run("missing Store_PCache", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r := &Routine{Insts: []MicroInst{{Inst: isa.Inst{Op: isa.OpAddi, Dst: 64}}}}
		Execute(r, env)
	})
	t.Run("illegal op", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r := &Routine{Insts: []MicroInst{{Inst: isa.Inst{Op: isa.OpStore}}}}
		Execute(r, env)
	})
}

func TestExecuteIndirectWithoutTakenBit(t *testing.T) {
	// Indirect terminating branches always report taken with the
	// computed register target.
	r := &Routine{
		BranchPC: 40,
		Insts: []MicroInst{
			{Inst: isa.Inst{Op: isa.OpLdi, Dst: 64, Imm: 777}},
			{Inst: isa.Inst{Op: isa.OpStorePCache, Src1: 64}, BranchOp: isa.OpJmpInd},
		},
	}
	env := &Env{
		ReadReg:      func(isa.Reg) isa.Word { return 0 },
		LoadMem:      func(isa.Addr) isa.Word { return 0 },
		PredictValue: func(isa.Addr, int) (isa.Word, bool) { return 0, false },
		PredictAddr:  func(isa.Addr, int) (isa.Word, bool) { return 0, false },
	}
	res := Execute(r, env)
	if !res.Taken || res.Target != 777 {
		t.Errorf("indirect result = %+v", res)
	}
}
