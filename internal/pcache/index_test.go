package pcache

import (
	"math/rand"
	"testing"

	"dpbp/internal/path"
)

// refCache is the map-indexed Prediction Cache the open-addressed index
// replaced, kept as the reference model: same slot allocation, same
// victim choice, a built-in map for the key index.
type refCache struct {
	entries []Entry
	used    []bool
	free    []int
	index   map[refKey]int
	Stats   Stats
}

type refKey struct {
	ctx uint8
	id  path.ID
	seq uint64
}

func newRef(capacity int) *refCache {
	c := &refCache{
		entries: make([]Entry, capacity),
		used:    make([]bool, capacity),
		index:   make(map[refKey]int, capacity),
	}
	c.reset()
	return c
}

func (c *refCache) reset() {
	clear(c.index)
	c.free = c.free[:0]
	for i := len(c.entries) - 1; i >= 0; i-- {
		c.free = append(c.free, i)
	}
	clear(c.used)
	c.Stats = Stats{}
}

func (c *refCache) write(e Entry) {
	c.Stats.Writes++
	k := refKey{e.Ctx, e.PathID, e.Seq}
	if i, ok := c.index[k]; ok {
		c.Stats.Overwrites++
		c.entries[i] = e
		return
	}
	var slot int
	if len(c.free) > 0 {
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		victim := -1
		for i := range c.entries {
			if c.used[i] && (victim == -1 || c.entries[i].Seq < c.entries[victim].Seq) {
				victim = i
			}
		}
		c.Stats.Evictions++
		v := &c.entries[victim]
		delete(c.index, refKey{v.Ctx, v.PathID, v.Seq})
		slot = victim
	}
	c.entries[slot] = e
	c.used[slot] = true
	c.index[k] = slot
}

func (c *refCache) consume(ctx uint8, id path.ID, seq uint64) (Entry, bool) {
	k := refKey{ctx, id, seq}
	i, ok := c.index[k]
	if !ok {
		c.Stats.Misses++
		return Entry{}, false
	}
	c.Stats.Hits++
	e := c.entries[i]
	c.release(i, k)
	return e, true
}

func (c *refCache) remove(ctx uint8, id path.ID, seq uint64) bool {
	k := refKey{ctx, id, seq}
	i, ok := c.index[k]
	if ok {
		c.release(i, k)
	}
	return ok
}

func (c *refCache) expire(ctx uint8, fetchSeq uint64) {
	for i := range c.entries {
		e := &c.entries[i]
		if c.used[i] && e.Ctx == ctx && e.Seq <= fetchSeq {
			c.Stats.Expired++
			c.release(i, refKey{e.Ctx, e.PathID, e.Seq})
		}
	}
}

func (c *refCache) release(i int, k refKey) {
	delete(c.index, k)
	c.used[i] = false
	c.free = append(c.free, i)
}

// TestIndexMatchesReference drives the cache and the map-indexed
// reference model with the same random Write/Consume/Remove/Expire/Reset
// sequences — small key spaces so overwrites, hits and full-cache
// evictions are frequent, two contexts so expiry is context-scoped — and
// requires identical returns, identical live entries slot for slot, and
// identical Stats after every operation.
func TestIndexMatchesReference(t *testing.T) {
	var seen Stats // accumulated, to show every path was exercised
	for _, capacity := range []int{1, 2, 3, 8, 16, 128} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			c, ref := New(capacity), newRef(capacity)
			var fetch [2]uint64
			key := func() (uint8, path.ID, uint64) {
				ctx := uint8(rng.Intn(2))
				return ctx, path.ID(rng.Intn(6)), fetch[ctx] + uint64(rng.Intn(3*capacity+4))
			}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 40:
					ctx, id, seq := key()
					e := Entry{Ctx: ctx, PathID: id, Seq: seq, Taken: rng.Intn(2) == 0, Target: 9, Ready: uint64(step)}
					c.Write(e)
					ref.write(e)
				case op < 65:
					ctx, id, seq := key()
					got, gok := c.Consume(ctx, id, seq)
					want, wok := ref.consume(ctx, id, seq)
					if got != want || gok != wok {
						t.Fatalf("cap %d seed %d step %d: Consume = %+v,%v want %+v,%v", capacity, seed, step, got, gok, want, wok)
					}
				case op < 80:
					ctx, id, seq := key()
					if got, want := c.Remove(ctx, id, seq), ref.remove(ctx, id, seq); got != want {
						t.Fatalf("cap %d seed %d step %d: Remove = %v want %v", capacity, seed, step, got, want)
					}
				case op < 99:
					ctx := uint8(rng.Intn(2))
					fetch[ctx] += uint64(rng.Intn(4))
					c.Expire(ctx, fetch[ctx])
					ref.expire(ctx, fetch[ctx])
				default:
					c.Reset()
					ref.reset()
					fetch = [2]uint64{}
				}
				if st := c.Stats; step == 2999 {
					seen.Evictions += st.Evictions
					seen.Overwrites += st.Overwrites
					seen.Expired += st.Expired
					seen.Hits += st.Hits
				}
				if c.Stats != ref.Stats || c.Len() != len(ref.index) {
					t.Fatalf("cap %d seed %d step %d: stats %+v len %d, want %+v len %d",
						capacity, seed, step, c.Stats, c.Len(), ref.Stats, len(ref.index))
				}
				for i := range ref.used {
					if c.used[i] != ref.used[i] || (ref.used[i] && c.entries[i] != ref.entries[i]) {
						t.Fatalf("cap %d seed %d step %d: slot %d = %v %+v, want %v %+v",
							capacity, seed, step, i, c.used[i], c.entries[i], ref.used[i], ref.entries[i])
					}
				}
			}
		}
	}
	if seen.Evictions == 0 || seen.Overwrites == 0 || seen.Expired == 0 || seen.Hits == 0 {
		t.Errorf("sequences never exercised every path: %+v", seen)
	}
}
