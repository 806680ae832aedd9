package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// groundTruth holds a synthetic video's exact per-frame counts, read
// from its scene generator at set-up.
type groundTruth struct {
	score []float64 // by frame
	desc  []float64 // score sorted descending
}

func truthOf(src *video.Synthetic) *groundTruth {
	g := &groundTruth{score: make([]float64, src.NumFrames())}
	for i := range g.score {
		g.score[i] = float64(src.TrueCountFast(i))
	}
	g.desc = append([]float64(nil), g.score...)
	sort.Sort(sort.Reverse(sort.Float64Slice(g.desc)))
	return g
}

// kth is the exact K-th highest score over the first n frames (all of
// them when n is 0).
func (g *groundTruth) kth(k, n int) float64 {
	if n == 0 || n == len(g.score) {
		return g.desc[k-1]
	}
	return kthScore(g.score[:n], k)
}

// answer is one Top-K answer kept for checking after the timed pass.
type answer struct {
	src      *video.Synthetic // the video, unwrapped
	truth    *groundTruth     // nil for window answers
	prefix   int              // frames the answer covers; 0 means all
	k        int
	thres    float64
	window   bool
	ids      []int
	scores   []float64
	conf     float64
	degraded bool
}

// check verifies one answer: K distinct IDs in descending score order, a
// confidence that meets the threshold, and, for frame answers, every
// score equal to the UDF's score for that frame, recomputed here. It
// returns how many returned frames are true Top-K frames (ties counting)
// and how many frames it returned, for precision.
func (a answer) check() (hit, returned int, err error) {
	if a.degraded {
		return 0, 0, fmt.Errorf("degraded answer")
	}
	if len(a.ids) != a.k || len(a.scores) != a.k {
		return 0, 0, fmt.Errorf("%d IDs and %d scores for K=%d", len(a.ids), len(a.scores), a.k)
	}
	seen := make(map[int]bool, len(a.ids))
	for i, id := range a.ids {
		if seen[id] {
			return 0, 0, fmt.Errorf("ID %d returned twice", id)
		}
		seen[id] = true
		if i > 0 && a.scores[i] > a.scores[i-1] {
			return 0, 0, fmt.Errorf("scores not descending at rank %d", i)
		}
	}
	if !(a.conf >= a.thres) {
		return 0, 0, fmt.Errorf("confidence %v below threshold %v", a.conf, a.thres)
	}
	if a.window {
		return 0, 0, nil
	}
	want := vision.CountUDF{Class: a.src.TargetClass()}.Score(a.src, a.ids)
	for i := range want {
		if want[i] != a.scores[i] {
			return 0, 0, fmt.Errorf("frame %d scored %v, UDF says %v", a.ids[i], a.scores[i], want[i])
		}
	}
	return hits(a.ids, a.truth.score, a.truth.kth(a.k, a.prefix)), len(a.ids), nil
}

// checkAnswers checks every answer of a pass. Each failed answer counts
// as a failed operation; precision is the pooled share of returned
// frames that are true Top-K frames.
func checkAnswers(p *passResult) (precision float64) {
	var hit, returned int
	for _, a := range p.answers {
		h, n, err := a.check()
		if err != nil {
			p.fail(fmt.Errorf("answer check: %w", err))
			continue
		}
		hit += h
		returned += n
	}
	if returned == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(returned)
}

// fidelity compares the traced pass's outcomes with the public pass's,
// client by client, over the operations both completed. It returns how
// many it compared.
func fidelity(public, traced *passResult) (int, error) {
	n := 0
	for c := range public.clients {
		a, b := public.clients[c], traced.clients[c]
		for i := 0; i < len(a) && i < len(b); i++ {
			if !reflect.DeepEqual(a[i], b[i]) {
				return n, fmt.Errorf("client %d operation %d: traced %+v, public %+v", c, i, b[i], a[i])
			}
			n++
		}
	}
	return n, nil
}
