package uthread

import (
	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// MicroRAM stores constructed microthread routines (Section 4.3.1). Its
// capacity bounds the number of concurrently promoted paths (the paper
// uses 8K). Install refuses when full; the Path Cache then leaves the
// path unpromoted and retries later, by which time demotions may have
// freed space.
//
// The MicroRAM is the one home of a path's routine state: the routine,
// the cycle its build completes, and the rebuild flag live in one entry,
// so every context sharing a MicroRAM sees the same readiness.
type MicroRAM struct {
	cap   int //dpbp:reset-skip capacity, fixed at construction
	paths path.Map[ramEntry]
	// bySpawn indexes routines by spawn PC over the code image, so the
	// fetch loop's per-instruction spawn probe is one slice read. Each
	// list is in install order.
	bySpawn [][]*Routine
}

// ramEntry is one path's routine state.
type ramEntry struct {
	r       *Routine
	ready   uint64 // cycle the routine's build completes
	rebuild bool
}

// NewMicroRAM returns a MicroRAM holding up to capacity routines whose
// spawn points lie in a code image of codeLen addresses.
func NewMicroRAM(capacity, codeLen int) *MicroRAM {
	if capacity < 1 {
		capacity = 1
	}
	m := &MicroRAM{cap: capacity}
	m.Reset(codeLen)
	return m
}

// Reset removes every routine and resizes the spawn index for a code
// image of codeLen addresses, keeping allocations for reuse.
func (m *MicroRAM) Reset(codeLen int) {
	m.paths.Clear()
	if cap(m.bySpawn) < codeLen {
		m.bySpawn = make([][]*Routine, codeLen)
		return
	}
	m.bySpawn = m.bySpawn[:codeLen]
	for pc, list := range m.bySpawn {
		clear(list)
		m.bySpawn[pc] = list[:0]
	}
}

// Len returns the number of stored routines.
func (m *MicroRAM) Len() int { return m.paths.Len() }

// Cap returns the capacity.
func (m *MicroRAM) Cap() int { return m.cap }

// Install stores a routine whose build completes at cycle ready,
// replacing any previous routine for the same path and clearing its
// rebuild flag. It reports whether the routine was accepted (false when
// full).
func (m *MicroRAM) Install(r *Routine, ready uint64) bool {
	e := m.paths.Find(r.PathID)
	if e != nil {
		m.unindex(e.r)
	} else if m.paths.Len() >= m.cap {
		return false
	} else {
		e = m.paths.Put(r.PathID)
	}
	*e = ramEntry{r: r, ready: ready}
	m.bySpawn[r.SpawnPC] = append(m.bySpawn[r.SpawnPC], r)
	return true
}

// Lookup returns the routine for a path, or nil.
func (m *MicroRAM) Lookup(id path.ID) *Routine {
	if e := m.paths.Find(id); e != nil {
		return e.r
	}
	return nil
}

// Ready returns the cycle the path's routine build completes (0 when the
// path has no routine).
func (m *MicroRAM) Ready(id path.ID) uint64 {
	if e := m.paths.Find(id); e != nil {
		return e.ready
	}
	return 0
}

// SpawnCandidates returns the routines whose spawn point is pc, in
// install order. The returned slice is owned by the MicroRAM; callers
// must not modify it.
func (m *MicroRAM) SpawnCandidates(pc isa.Addr) []*Routine {
	if int(pc) < len(m.bySpawn) {
		return m.bySpawn[pc]
	}
	return nil
}

// Remove deletes the routine for a path (demotion).
func (m *MicroRAM) Remove(id path.ID) {
	if e := m.paths.Find(id); e != nil {
		m.unindex(e.r)
		m.paths.Delete(id)
	}
}

// unindex drops r from its spawn PC's list, keeping the others' order.
func (m *MicroRAM) unindex(r *Routine) {
	list := m.bySpawn[r.SpawnPC]
	for i, x := range list {
		if x == r {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			m.bySpawn[r.SpawnPC] = list[:len(list)-1]
			return
		}
	}
}

// MarkRebuild flags a routine for reconstruction after a memory-dependence
// violation (Section 4.2.4). The SSMT core rebuilds it the next time the
// path's terminating branch retires.
func (m *MicroRAM) MarkRebuild(id path.ID) {
	if e := m.paths.Find(id); e != nil {
		e.rebuild = true
	}
}

// NeedsRebuild reports and clears the rebuild flag for a path.
func (m *MicroRAM) NeedsRebuild(id path.ID) bool {
	e := m.paths.Find(id)
	if e == nil || !e.rebuild {
		return false
	}
	e.rebuild = false
	return true
}
