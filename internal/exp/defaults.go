package exp

import (
	"runtime"

	"dpbp/internal/pathprof"
)

// Default instruction budgets, applied when the corresponding Options
// field is zero. cmd/dpbp leaves its flags at zero so these are the
// single source of truth.
const (
	defaultTimingInsts  = 400_000
	defaultProfileInsts = 1_000_000
)

// Upper bounds on the instruction budgets, checked by Options.Validate.
// MaxProfileInsts is the profiler's own bound (its counts are 32-bit).
// MaxTimingInsts, already minutes of timing core per run, rejects a
// mistyped budget before it occupies a worker for hours.
const (
	MaxTimingInsts  = 1 << 32
	MaxProfileInsts = pathprof.MaxBudget
)

// defaultParallelism honours GOMAXPROCS rather than raw NumCPU: the two
// differ under CPU quotas (containers) and when the user caps the
// runtime, and oversubscribing the scheduler just adds contention.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }
