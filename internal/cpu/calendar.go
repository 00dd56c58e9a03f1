package cpu

import "fmt"

// calendar tracks per-cycle usage of a shared resource (functional units,
// L1 read ports) over a sliding horizon. Slots are validated by absolute
// cycle and a generation number, so the ring can be reused across cycles
// and across runs without any clearing; scheduling never looks further
// ahead than memory latency plus queueing, far below the horizon, and
// earliest/earliest2 panic if that invariant is ever violated rather than
// silently aliasing the ring.
type calendar struct {
	limit int
	// gen distinguishes runs: reset bumps it, instantly invalidating
	// every slot. Zeroing the 32K slots on every reset cost ~512KB of
	// writes per run pair; the generation check is one extra compare on
	// the slot the access already touched.
	gen   uint32
	slots []calSlot
}

// calSlot is one cycle's booking: the absolute cycle and run generation
// that validate it, and the units used. One 16-byte slot per probe keeps
// each lookup to a single cache line.
type calSlot struct {
	cycle uint64
	gen   uint32
	used  uint16
}

const calendarHorizon = 1 << 15

func newCalendar(limit int) *calendar {
	return &calendar{
		limit: limit,
		gen:   1,
		slots: make([]calSlot, calendarHorizon),
	}
}

// reset invalidates every slot so the calendar can serve another run. A
// new run's cycle numbers restart from zero, so stale entries could
// otherwise masquerade as live bookings; bumping the generation retires
// them all in O(1). When the 32-bit generation wraps, slots stamped with
// the reused generation numbers could revive, so the wrap zeroes them.
func (c *calendar) reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.slots)
		c.gen = 1
	}
}

func (c *calendar) usedAt(cyc uint64) uint16 {
	s := &c.slots[cyc%calendarHorizon]
	if s.gen != c.gen || s.cycle != cyc {
		return 0
	}
	return s.used
}

func (c *calendar) add(cyc uint64) {
	s := &c.slots[cyc%calendarHorizon]
	if s.gen != c.gen || s.cycle != cyc {
		*s = calSlot{cycle: cyc, gen: c.gen}
	}
	s.used++
}

// remove refunds one slot at cyc (microthread abort). It is a no-op if the
// slot has already been recycled.
func (c *calendar) remove(cyc uint64) {
	s := &c.slots[cyc%calendarHorizon]
	if s.gen == c.gen && s.cycle == cyc && s.used > 0 {
		s.used--
	}
}

// checkHorizon panics when a scan for a free slot has moved a full ring
// width past ready: one more step would alias the slot the scan started
// from and silently corrupt bookings. Reaching it means the model booked
// calendarHorizon consecutive full cycles, which no latency in the
// machine can produce; failing loudly (the scheduler's panic isolation
// turns this into a per-run error) beats wrong numbers.
func (c *calendar) checkHorizon(cyc, ready uint64) {
	if cyc-ready >= calendarHorizon {
		panic(fmt.Sprintf(
			"cpu: resource calendar fully booked from cycle %d through %d (horizon %d, limit %d/cycle)",
			ready, cyc, calendarHorizon, c.limit))
	}
}

// earliest returns the first cycle at or after ready with a free slot,
// and books it.
func (c *calendar) earliest(ready uint64) uint64 {
	cyc := ready
	for c.usedAt(cyc) >= uint16(c.limit) {
		cyc++
		c.checkHorizon(cyc, ready)
	}
	c.add(cyc)
	return cyc
}

// earliest2 books a slot in both calendars at the first cycle at or after
// ready where both have capacity (loads need a functional unit and an L1
// port in the same cycle).
func earliest2(a, b *calendar, ready uint64) uint64 {
	cyc := ready
	for a.usedAt(cyc) >= uint16(a.limit) || b.usedAt(cyc) >= uint16(b.limit) {
		cyc++
		a.checkHorizon(cyc, ready)
	}
	a.add(cyc)
	b.add(cyc)
	return cyc
}
