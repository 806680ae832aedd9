package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read from fewer samples is noise.
const tailBeyond = 10

// tailPct is the percentile every workload reports as its tail. It is
// fixed, so that a change in throughput never moves the tail to another
// percentile. Higher ones spread across runs by more than their bound
// on a shared 2-CPU host (p99 and p99.9 of serve and shared queries are
// set by rare stalls), so p90 is the highest percentile this benchmark
// can hold a change to.
const tailPct = 90

// latencySummary is the median and the tail of a latency sample set.
type latencySummary struct {
	N          int     // samples
	P50        float64 // median
	Tail       float64 // the tail percentile's value
	TailPct    float64 // tailPct, or 50 when too few samples lie beyond it
	TailBeyond int     // samples beyond Tail
}

// summarize reports the median of xs and its tail: the nearest-rank
// tailPct percentile when at least tailBeyond samples lie beyond it,
// else the median, with TailBeyond saying how thin it is.
func summarize(xs []float64) latencySummary {
	n := len(xs)
	if n == 0 {
		return latencySummary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := latencySummary{N: n, P50: median(s), Tail: median(s), TailPct: 50, TailBeyond: n / 2}
	if r := rank(tailPct, n); n-r >= tailBeyond {
		out.Tail, out.TailPct, out.TailBeyond = s[r-1], tailPct, n-r
	}
	return out
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// median of an already sorted slice; NaN when empty.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is median over an unsorted slice, leaving it untouched.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// per divides, reading 0 when nothing was counted.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// kthScore is the exact K-th highest ground-truth score of a video.
func kthScore(truth []float64, k int) float64 {
	s := append([]float64(nil), truth...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[k-1]
}

// hits counts the returned IDs whose ground-truth score reaches the exact
// K-th score. Ties count: any frame tied with the K-th score is as good
// an answer as the frame that happens to sit at rank K.
func hits(ids []int, truth []float64, kth float64) int {
	n := 0
	for _, id := range ids {
		if truth[id] >= kth {
			n++
		}
	}
	return n
}
