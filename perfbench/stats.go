package main

import (
	"runtime"
	"slices"
	"syscall"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapCounters is the cumulative allocation state at one instant.
type heapCounters struct {
	bytes, mallocs uint64
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{bytes: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// since returns the bytes and allocations made since c was read.
func (c heapCounters) since() (bytes, mallocs float64) {
	now := readHeap()
	return float64(now.bytes - c.bytes), float64(now.mallocs - c.mallocs)
}
