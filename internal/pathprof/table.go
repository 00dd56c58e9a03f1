package pathprof

import "dpbp/internal/path"

// pathStats aggregates one unique path: 12 bytes, no pointers, so a
// profile's path.Map slots are flat arrays the garbage collector never
// scans. The uint32 counts cannot wrap because a run's budget is bounded
// by MaxBudget (see Config.Validate); the scope is fixed per path and
// recorded on first occurrence (occ == 0).
type pathStats struct {
	occ   uint32
	miss  uint32
	scope int32
}

// pathEntry is one retained path: its Path_Id and aggregates.
type pathEntry struct {
	id path.ID
	pathStats
}

// retain folds one path length's table into the aggregates an NProfile
// keeps: the unique-path count, the integer sums of scopes, occurrences
// and mispredictions, and an exact-length copy of the paths that
// mispredicted at least once — the only ones any T >= 0 can call
// difficult. The table itself is dropped.
func retain(t *path.Map[pathStats], n int) *NProfile {
	np := &NProfile{N: n, unique: t.Len()}
	missed := 0
	t.Range(func(_ path.ID, e *pathStats) {
		np.scopeSum += int64(e.scope)
		np.occ += uint64(e.occ)
		np.miss += uint64(e.miss)
		if e.miss > 0 {
			missed++
		}
	})
	np.missed = make([]pathEntry, 0, missed)
	t.Range(func(id path.ID, e *pathStats) {
		if e.miss > 0 {
			np.missed = append(np.missed, pathEntry{id, *e})
		}
	})
	return np
}
