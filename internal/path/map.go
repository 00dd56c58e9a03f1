package path

// Map is an open-addressed hash table keyed by Path_Id: linear probing
// from a Fibonacci-hashed home slot over one flat slot array, grown by
// doubling at a 3/4 load factor. The timing core probes its Path_Id sets
// and the MicroRAM for every terminating branch and spawn candidate, and
// the path profiler upserts every path occurrence; a built-in map's
// hashing and bucket chasing showed up prominently in CPU profiles of
// both, where this keeps a lookup to one multiply and (almost always) one
// cache line.
//
// The zero value is an empty map. Clear keeps the slot array, so a reused
// owner stops re-allocating its tables on every Reset. Delete uses
// backward-shift compaction, so the table never accumulates tombstones
// and lookups stay O(probe distance). Pointers returned by Find and Put
// are valid until the next Put or Delete.
type Map[V any] struct {
	slots []slot[V]
	n     int
}

type slot[V any] struct {
	key  ID
	live bool
	val  V
}

// mapMinCap is the slot count of the first insertion. It must be a power
// of two; growth doubles it.
const mapMinCap = 64

// home returns the preferred slot of k. Path_Ids are already shift-XOR
// hashes, but the Fibonacci multiply spreads their low bits for the mask.
func home(k ID, mask uint64) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> 32 & mask
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int { return m.n }

// Clear empties the map, keeping capacity for reuse.
func (m *Map[V]) Clear() {
	if m.n == 0 {
		return
	}
	clear(m.slots)
	m.n = 0
}

// Find returns the value stored for k, or nil if k is absent.
func (m *Map[V]) Find(k ID) *V {
	if m.n == 0 {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	for i := home(k, mask); m.slots[i].live; i = (i + 1) & mask {
		if m.slots[i].key == k {
			return &m.slots[i].val
		}
	}
	return nil
}

// Has reports whether k is present.
func (m *Map[V]) Has(k ID) bool { return m.Find(k) != nil }

// Put returns the value stored for k, inserting a zero value first if k
// is absent.
func (m *Map[V]) Put(k ID) *V {
	if len(m.slots) == 0 || (m.n+1)*4 > len(m.slots)*3 {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	i := home(k, mask)
	for m.slots[i].live {
		if m.slots[i].key == k {
			return &m.slots[i].val
		}
		i = (i + 1) & mask
	}
	m.slots[i].key = k
	m.slots[i].live = true
	m.n++
	return &m.slots[i].val
}

// Delete removes k if present, backward-shifting the displaced cluster so
// probe chains stay contiguous.
func (m *Map[V]) Delete(k ID) {
	if m.n == 0 {
		return
	}
	mask := uint64(len(m.slots) - 1)
	i := home(k, mask)
	for {
		if !m.slots[i].live {
			return
		}
		if m.slots[i].key == k {
			break
		}
		i = (i + 1) & mask
	}
	m.n--
	j := i
	for {
		m.slots[i] = slot[V]{}
		// Find the next entry in the cluster that may legally move into
		// the hole at i: one whose home slot is not cyclically inside
		// (i, j].
		for {
			j = (j + 1) & mask
			if !m.slots[j].live {
				return
			}
			h := home(m.slots[j].key, mask)
			if (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		m.slots[i] = m.slots[j]
		i = j
	}
}

// Range calls f for every entry in slot order. f must not Put or Delete.
func (m *Map[V]) Range(f func(k ID, v *V)) {
	for i := range m.slots {
		if s := &m.slots[i]; s.live {
			f(s.key, &s.val)
		}
	}
}

// grow rehashes into a table twice the size (or the minimum capacity).
func (m *Map[V]) grow() {
	newCap := mapMinCap
	if len(m.slots) > 0 {
		newCap = len(m.slots) * 2
	}
	old := m.slots
	m.slots = make([]slot[V], newCap)
	mask := uint64(newCap - 1)
	for _, s := range old {
		if !s.live {
			continue
		}
		i := home(s.key, mask)
		for m.slots[i].live {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}
