package cpu

import (
	"fmt"
	"math"
)

// SetCtxTransitionHook installs f to run after every microcontext
// activation and deactivation, returning a func that restores the
// previous hook. Not safe to call while runs are in flight.
func SetCtxTransitionHook(f func(m *Machine)) (restore func()) {
	old := testHookCtxTransition
	testHookCtxTransition = f
	return func() { testHookCtxTransition = old }
}

// CheckNextTarget recomputes the minimum targetSeq over active contexts
// from their active flags and reports whether the incrementally
// maintained nextTarget disagrees.
func (m *Machine) CheckNextTarget() error {
	want := uint64(math.MaxUint64)
	active := 0
	for i := range m.ctxs {
		if c := &m.ctxs[i]; c.active {
			active++
			want = min(want, c.targetSeq)
		}
	}
	if m.nextTarget != want || m.activeCtxs != active {
		return fmt.Errorf("nextTarget %d over %d active contexts, recomputed %d over %d",
			m.nextTarget, m.activeCtxs, want, active)
	}
	return nil
}
