// Package pcache implements the Prediction Cache of Section 4.3.3: the
// structure through which microthreads communicate pre-computed branch
// outcomes to the front end.
//
// A microthread's Store_PCache writes an entry keyed by (Ctx, Path_Id,
// Seq_Num) — the primary context that spawned the microthread, the path
// being predicted, and the dynamic sequence number of the specific branch
// instance. The front end probes the cache when it fetches a branch; a
// hit overrides the hardware prediction. Writes that arrive after the
// branch was fetched are matched against in-flight instances by the core
// to initiate early recoveries (that matching lives in the timing core;
// this package stores and expires entries).
//
// The context tag exists for SMT: each primary thread numbers its dynamic
// instructions from zero, so under a shared Prediction Cache a bare
// (Path_Id, Seq_Num) key would collide across contexts, and one thread's
// expiry sweep would reclaim a slower co-runner's still-future entries.
// Single-thread runs pass context 0 everywhere and behave exactly as
// before.
//
// The cache is small (128 entries in the paper) because entries are
// short-lived: any entry whose Seq_Num is behind its own context's fetch
// position can never match again and is eagerly reclaimed.
package pcache

import (
	"math"

	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// Entry is one microthread prediction.
type Entry struct {
	// Ctx is the primary context whose instruction stream Seq indexes;
	// 0 outside SMT runs.
	Ctx    uint8
	PathID path.ID
	Seq    uint64
	Taken  bool
	Target isa.Addr
	// Ready is the cycle at which the Store_PCache completes and the
	// prediction becomes visible to the front end. The timing core uses
	// it to classify deliveries as early, late, or useless.
	Ready uint64
}

// Stats counts Prediction Cache activity.
type Stats struct {
	Writes     uint64
	Overwrites uint64 // same (PathID, Seq) written twice
	Evictions  uint64 // live entry displaced by a write to a full cache
	Expired    uint64 // stale entries reclaimed
	Hits       uint64 // front-end probes that matched
	Misses     uint64
}

// Cache is the Prediction Cache.
type Cache struct {
	cap     int     //dpbp:reset-skip capacity, fixed at construction
	entries []Entry //dpbp:reset-skip stale entries are gated by used, which Reset clears
	used    []bool
	free    []int

	// slots is the open-addressed index over entries: each slot holds an
	// entry index plus one (0 = empty). It has at least twice as many
	// slots as the cache has entries, so a probe always reaches an empty
	// slot; linear probing with backward-shift deletion keeps clusters
	// tombstone-free.
	slots []int32
	mask  uint64 //dpbp:reset-skip sizing, fixed at construction
	n     int
	// minSeq is a lower bound on the Seq of every live entry
	// (math.MaxUint64 when the cache is empty). Expire sweeps only once
	// the fetch position reaches it; a sweep recomputes it exactly.
	minSeq uint64

	Stats Stats
}

// New returns a Prediction Cache with the given capacity (the paper
// uses 128).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	nslots := 1
	for nslots < 2*capacity {
		nslots <<= 1
	}
	c := &Cache{
		cap:     capacity,
		entries: make([]Entry, capacity),
		used:    make([]bool, capacity),
		slots:   make([]int32, nslots),
		mask:    uint64(nslots - 1),
		minSeq:  math.MaxUint64,
	}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, i)
	}
	return c
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return c.n }

// home returns the preferred index slot of the key (ctx, id, seq).
// Path_Ids are already hashes; the Fibonacci multiply folds in the
// sequence number and context and spreads the result's high bits.
func (c *Cache) home(ctx uint8, id path.ID, seq uint64) uint64 {
	h := (uint64(id) ^ seq<<8 ^ uint64(ctx)) * 0x9E3779B97F4A7C15
	return h >> 32 & c.mask
}

// find probes for the key. It returns the slot holding it and its entry
// index, or the empty slot that ends the probe and -1.
func (c *Cache) find(ctx uint8, id path.ID, seq uint64) (uint64, int) {
	for i := c.home(ctx, id, seq); ; i = (i + 1) & c.mask {
		s := c.slots[i]
		if s == 0 {
			return i, -1
		}
		if e := &c.entries[s-1]; e.PathID == id && e.Seq == seq && e.Ctx == ctx {
			return i, int(s - 1)
		}
	}
}

// unindex empties slot i, backward-shifting the rest of its cluster so
// every remaining key stays reachable from its home slot.
func (c *Cache) unindex(i uint64) {
	j := i
	for {
		c.slots[i] = 0
		// Find the next entry in the cluster that may legally move into
		// the hole at i: one whose home slot is not cyclically inside
		// (i, j].
		for {
			j = (j + 1) & c.mask
			s := c.slots[j]
			if s == 0 {
				return
			}
			e := &c.entries[s-1]
			if h := c.home(e.Ctx, e.PathID, e.Seq); (j-h)&c.mask >= (j-i)&c.mask {
				break
			}
		}
		c.slots[i] = c.slots[j]
		i = j
	}
}

// Write installs a prediction. If the cache is full it first reclaims the
// entry with the smallest Seq (the one that will expire soonest); entries
// never block writes, matching the paper's observation that aggressive
// de-allocation keeps 128 entries sufficient.
func (c *Cache) Write(e Entry) {
	c.Stats.Writes++
	at, i := c.find(e.Ctx, e.PathID, e.Seq)
	if i >= 0 {
		c.Stats.Overwrites++
		c.entries[i] = e
		return
	}
	var slot int
	if len(c.free) > 0 {
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		// Evict the entry closest to expiry.
		victim := -1
		for i := range c.entries {
			if !c.used[i] {
				continue
			}
			if victim == -1 || c.entries[i].Seq < c.entries[victim].Seq {
				victim = i
			}
		}
		c.Stats.Evictions++
		v := &c.entries[victim]
		vat, _ := c.find(v.Ctx, v.PathID, v.Seq)
		c.unindex(vat)
		c.n--
		slot = victim
		// The backward shift may have moved the empty slot the first
		// probe ended at.
		at, _ = c.find(e.Ctx, e.PathID, e.Seq)
	}
	c.entries[slot] = e
	c.used[slot] = true
	c.slots[at] = int32(slot + 1)
	c.n++
	if e.Seq < c.minSeq {
		c.minSeq = e.Seq
	}
}

// Consume probes the cache at fetch time for the branch instance
// (ctx, id, seq). A hit removes and returns the entry: each prediction
// targets exactly one dynamic instance.
func (c *Cache) Consume(ctx uint8, id path.ID, seq uint64) (Entry, bool) {
	at, i := c.find(ctx, id, seq)
	if i < 0 {
		c.Stats.Misses++
		return Entry{}, false
	}
	c.Stats.Hits++
	e := c.entries[i]
	c.release(i, at)
	return e, true
}

// Remove deletes the entry for (ctx, id, seq) if present, returning
// whether it existed. The SSMT core uses it when an aborted microthread's
// pending write must be cancelled.
func (c *Cache) Remove(ctx uint8, id path.ID, seq uint64) bool {
	at, i := c.find(ctx, id, seq)
	if i < 0 {
		return false
	}
	c.release(i, at)
	return true
}

// Expire reclaims every entry of context ctx whose Seq is at or behind
// that context's current fetch sequence number; such entries can never
// match again. Other contexts' entries are untouched: under a shared
// cache each primary thread numbers its stream independently, so a fast
// thread's sweep must not judge a slow co-runner's entries stale.
func (c *Cache) Expire(ctx uint8, fetchSeq uint64) {
	if fetchSeq < c.minSeq {
		return // no live entry is at or behind fetchSeq (or none is live)
	}
	lo := uint64(math.MaxUint64)
	for i := range c.entries {
		if !c.used[i] {
			continue
		}
		e := &c.entries[i]
		if e.Ctx == ctx && e.Seq <= fetchSeq {
			c.Stats.Expired++
			at, _ := c.find(e.Ctx, e.PathID, e.Seq)
			c.release(i, at)
			continue
		}
		lo = min(lo, e.Seq)
	}
	c.minSeq = lo
}

// release frees entry i, whose key sits in index slot at.
func (c *Cache) release(i int, at uint64) {
	c.unindex(at)
	c.n--
	c.used[i] = false
	c.free = append(c.free, i)
}
