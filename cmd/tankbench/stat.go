package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. Nearest rank never interpolates, so the value reported
// is always a latency some operation actually had.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle of vs (mean of the middle two when even);
// 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the default "exclusive" method),
// so that a spread computed here is the spread the acceptance check
// computes. Fewer than two values have no spread: all three cut points
// are the value itself.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// figure a bound is compared against. A zero median has no relative
// spread.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// interval is a half-open stretch of the recorder's clock, in
// nanoseconds.
type interval struct{ start, end int64 }

// uncovered returns how much of [start, end) no child covers: a span's
// self time is its own duration minus the union of its children, so
// children that overlap one another are counted once and children that
// stick out past the parent are clipped. children must be sorted by
// start.
func uncovered(start, end int64, children []interval) int64 {
	free := int64(0)
	at := start // everything before at is accounted for
	for _, c := range children {
		if c.end <= at {
			continue
		}
		if c.start >= end {
			break
		}
		if c.start > at {
			free += c.start - at
		}
		at = c.end
		if at >= end {
			return free
		}
	}
	return free + end - at
}
