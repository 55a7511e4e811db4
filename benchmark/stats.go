package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p % of the samples at
// or below it. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// windowP99s cuts a phase of the given length into n equal time windows,
// puts each latency into the window its response arrived in (at[i] from the
// start of the phase) and returns every window's p99 with the sample count
// of the emptiest window. The reported tail is the median of the windows'
// p99s: one stall lands in one window and moves one vote, where it would
// move a whole-phase p99 outright.
func windowP99s(at []time.Duration, lat []float64, length time.Duration, n int) (p99s []float64, fewest int) {
	windows := make([][]float64, n)
	for i, t := range at {
		w := int(int64(t) * int64(n) / int64(length))
		w = max(0, min(w, n-1)) // the response in flight when the phase ended
		windows[w] = append(windows[w], lat[i])
	}
	fewest = len(at)
	for _, w := range windows {
		sort.Float64s(w)
		p99s = append(p99s, percentile(w, 99))
		fewest = min(fewest, len(w))
	}
	return p99s, fewest
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (exclusive method), which
// is what the acceptance check applies to repeated runs. Fewer than two
// values have no spread: all three are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
