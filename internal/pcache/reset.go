package pcache

import "math"

// Reset empties the cache and zeroes its statistics without reallocating.
// The free list is rebuilt in construction order so a reset cache hands
// out slots in exactly the sequence a fresh one would — reused machines
// must stay bit-identical to fresh ones.
func (c *Cache) Reset() {
	clear(c.slots)
	c.n = 0
	c.minSeq = math.MaxUint64
	c.free = c.free[:0]
	for i := c.cap - 1; i >= 0; i-- {
		c.free = append(c.free, i)
	}
	for i := range c.used {
		c.used[i] = false
	}
	c.Stats = Stats{}
}
