package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations in microseconds for exact percentiles.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// pct returns the p-quantile (0..1) by nearest rank on a sorted copy, or 0
// when empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// p99 is the 0.99-quantile when at least ten samples lie beyond it (the
// rule for publishing a percentile), else 0.
func (s samples) p99() float64 {
	if float64(len(s))*0.01 < 10 {
		return 0
	}
	return s.pct(0.99)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio is a/b, 0 when b is 0: per-layer ratios on a workload that does not
// cross the layer read 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
