package main

import (
	"math"
	"testing"
)

func TestTailHasTenSamplesBeyondOrIsTheMedian(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{1, 50}, {5, 50}, {20, 50}, {99, 50}, {100, 90}, {101, 90}, {7368, 90}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // distinct, unsorted
		}
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if s.TailPct != c.pct || beyond != s.TailBeyond {
			t.Errorf("n=%d: tail at p%v with %d beyond (reported %d), want p%v", c.n, s.TailPct, beyond, s.TailBeyond, c.pct)
		}
		if c.pct == tailPct && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
		if c.pct == 50 && s.Tail != s.P50 {
			t.Errorf("n=%d: tail %v, want the median %v", c.n, s.Tail, s.P50)
		}
	}
	if s := summarize([]float64{3, 1, 2, 10}); s.P50 != 2.5 || s.Tail != 2.5 {
		t.Errorf("4 samples: %+v, want median 2.5 as the tail", s)
	}
}

func TestHitsCountsTies(t *testing.T) {
	truth := []float64{5, 4, 4, 4, 1, 0}
	kth := kthScore(truth, 2) // 4: three frames tie for rank 2
	if kth != 4 {
		t.Fatalf("kth = %v, want 4", kth)
	}
	if h := hits([]int{0, 3}, truth, kth); h != 2 {
		t.Errorf("a tied frame at rank 2 scored %d hits, want 2", h)
	}
	if h := hits([]int{0, 4}, truth, kth); h != 1 {
		t.Errorf("frame below the K-th score counted: %d hits, want 1", h)
	}
	g := &groundTruth{score: truth, desc: []float64{5, 4, 4, 4, 1, 0}}
	if got := g.kth(2, 2); got != 4 {
		t.Errorf("kth over a 2-frame prefix = %v, want 4", got)
	}
	if got := g.kth(1, 0); got != 5 {
		t.Errorf("kth over the whole video = %v, want 5", got)
	}
}

func TestPerReadsZeroForNoOperations(t *testing.T) {
	if per(3, 0) != 0 || per(3, 2) != 1.5 {
		t.Error("per")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
