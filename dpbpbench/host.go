package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// sample is the host cost of one measured repetition.
type sample struct {
	wall  time.Duration
	cpu   time.Duration // user plus system time of the whole process
	rssMB float64       // peak resident set during the repetition
}

// measure runs f as one repetition. It returns the heap to the OS and
// resets the kernel's peak-RSS mark first, so the peak belongs to this
// repetition rather than to an earlier one.
func measure(f func() error) (sample, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return sample{}, fmt.Errorf("reset peak RSS: %w", err)
	}
	cpu0, err := cpuTime()
	if err != nil {
		return sample{}, err
	}
	t0 := time.Now()
	if err := f(); err != nil {
		return sample{}, err
	}
	s := sample{wall: time.Since(t0)}
	cpu1, err := cpuTime()
	if err != nil {
		return sample{}, err
	}
	s.cpu = cpu1 - cpu0
	kb, err := peakRSSKB()
	if err != nil {
		return sample{}, err
	}
	s.rssMB = float64(kb) / 1024
	return s, nil
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSKB reads the process's resident-set high-water mark (VmHWM).
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			v = bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(v), []byte("kB")))
			return strconv.ParseInt(string(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// another reports whether one more repetition fits in the run's window:
// the first always runs, and a later one starts only if a repetition as
// long as the longest so far would still end inside the window.
func (r *runner) another(start time.Time, ss []sample) bool {
	var longest time.Duration
	for _, s := range ss {
		longest = max(longest, s.wall)
	}
	return len(ss) == 0 || time.Since(start)+longest <= r.seconds
}

// reportSamples folds repetitions into the host metrics: the median
// wall time, CPU time and peak RSS of one repetition.
func (r *runner) reportSamples(ss []sample) {
	var wall, cpu, rss []float64
	for _, s := range ss {
		wall = append(wall, secs(s.wall))
		cpu = append(cpu, secs(s.cpu))
		rss = append(rss, s.rssMB)
	}
	r.set("wall_s", median(wall))
	r.set("cpu_s", median(cpu))
	r.set("max_rss_mb", median(rss))
	fmt.Fprintf(r.log, "repetitions: %d, wall_s %v\n", len(ss), wall)
}
