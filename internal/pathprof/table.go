package pathprof

import "dpbp/internal/path"

// pathEntry aggregates one unique path: 24 bytes, no pointers, so a
// profile's tables are flat arrays the garbage collector never scans. A
// slot is live when occ > 0. The uint32 counts cannot wrap because a
// run's budget is bounded by MaxBudget (see Config.Validate); the scope
// is fixed per path and recorded on first occurrence.
type pathEntry struct {
	id    path.ID
	occ   uint32
	miss  uint32
	scope int32
}

// pathTable is an insert-only open-addressed hash table of pathEntry
// values for one path length: linear probing from a Fibonacci-hashed
// home slot, as in the timing core's path maps. Profiles never delete a
// path, so there are no tombstones and no backward shifts.
type pathTable struct {
	slots []pathEntry
	n     int // live entries
}

// pathTableMinCap is the slot count of a fresh table. It must be a power
// of two; growth doubles it.
const pathTableMinCap = 1 << 10

// home returns the preferred slot of id under mask.
func home(id path.ID, mask uint64) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15) >> 32 & mask
}

// entry returns the slot holding id, claiming an empty one (occ == 0,
// id set) if the path is new. The pointer is valid until the next call.
func (t *pathTable) entry(id path.ID) *pathEntry {
	if len(t.slots) == 0 {
		t.slots = make([]pathEntry, pathTableMinCap)
	}
	mask := uint64(len(t.slots) - 1)
	for i := home(id, mask); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.occ == 0 {
			if (t.n+1)*4 > len(t.slots)*3 {
				t.grow()
				return t.entry(id)
			}
			e.id = id
			t.n++
			return e
		}
		if e.id == id {
			return e
		}
	}
}

// grow rehashes every live entry into a table twice the size.
func (t *pathTable) grow() {
	old := t.slots
	t.slots = make([]pathEntry, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, e := range old {
		if e.occ == 0 {
			continue
		}
		i := home(e.id, mask)
		for t.slots[i].occ != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// retain folds the table into the aggregates an NProfile keeps: the
// unique-path count, the integer sums of scopes, occurrences and
// mispredictions, and an exact-length copy of the paths that
// mispredicted at least once — the only ones any T >= 0 can call
// difficult. The table itself is dropped.
func (t *pathTable) retain(n int) *NProfile {
	np := &NProfile{N: n, unique: t.n}
	missed := 0
	for i := range t.slots {
		e := &t.slots[i]
		if e.occ == 0 {
			continue
		}
		np.scopeSum += int64(e.scope)
		np.occ += uint64(e.occ)
		np.miss += uint64(e.miss)
		if e.miss > 0 {
			missed++
		}
	}
	np.missed = make([]pathEntry, 0, missed)
	for _, e := range t.slots {
		if e.miss > 0 {
			np.missed = append(np.missed, e)
		}
	}
	return np
}
