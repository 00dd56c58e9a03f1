package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a tail percentile before
// the benchmark reports it; with fewer, the percentile is one or two
// unlucky samples and says nothing about the tail.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is not modified. It is 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the q-quantile of xs by nearest rank, and false
// when fewer than minTail samples lie beyond it. Misses are recorded as
// +Inf, so they sort last and count against every tail.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minTail {
		return 0, false
	}
	return sortedCopy(xs)[i], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// medianDuration runs f reps times and returns the median of the
// durations it reports.
func medianDuration(reps int, f func() time.Duration) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(f())
	}
	return time.Duration(median(ds))
}
