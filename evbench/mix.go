package main

import (
	"math/rand/v2"

	"github.com/everest-project/everest/internal/video"
)

// The workload inputs below are pure functions of the seed: the program
// under test receives only what they generate.

// Query knobs drawn for every workload, after the paper's K and thres
// sweeps (Figs. 5 and 6).
var (
	kChoices     = []int{5, 10, 20, 50}
	thresChoices = []float64{0.8, 0.9, 0.95, 0.99}
	windowSizes  = []int{20, 30} // ≥ 66 tumbling windows at servedFrames, so K=50 fits
)

const (
	oneshotFrames = 2000 // frames per oneshot video
	servedFrames  = 2000 // frames per serve/shared index
	windowShare   = 5    // one serve query in windowShare is a window query
	sessionMin    = 20   // a client replaces its sessions every sessionMin..sessionMax queries
	sessionMax    = 30
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// videoSpec is one unseen video and the query asked of it.
type videoSpec struct {
	Cfg   video.Config
	K     int
	Thres float64
	Seed  uint64 // query seed
}

// oneshotVideos draws n videos: the five counting datasets of Table 7 in
// seeded rounds (each round a fresh permutation, so every run sees every
// dataset about equally often), each with a fresh scene seed, so no video
// repeats, and a drawn K and thres.
func oneshotVideos(seed uint64, n int) []videoSpec {
	r := newRand(seed, 1)
	sets := video.CountingDatasets()
	out := make([]videoSpec, 0, n)
	for len(out) < n {
		for _, i := range r.Perm(len(sets)) {
			if len(out) == n {
				break
			}
			cfg := sets[i].Config
			cfg.Frames = oneshotFrames
			cfg.Seed = r.Uint64()
			out = append(out, videoSpec{Cfg: cfg, K: pick(r, kChoices), Thres: pick(r, thresChoices), Seed: r.Uint64()})
		}
	}
	return out
}

// servedDatasets are the videos serve and shared index at set-up: two
// traffic cameras with different densities.
var servedDatasets = []string{"Archie", "Taipei-bus"}

// query is one analyst query of the serve and shared mixes.
type query struct {
	Video      int // index into servedDatasets
	K          int
	Thres      float64
	Window     int // tumbling window size; 0 for a frame query
	Seed       uint64
	NewSession bool // the client replaces its sessions before this query
}

// queryMix is one client's endless, seeded query sequence.
type queryMix struct {
	r    *rand.Rand
	left int // queries before the client's sessions are replaced
}

func newQueryMix(seed uint64, client int) *queryMix {
	return &queryMix{r: newRand(seed, 100+uint64(client))}
}

func (m *queryMix) next() query {
	q := query{
		Video: m.r.IntN(len(servedDatasets)),
		K:     pick(m.r, kChoices),
		Thres: pick(m.r, thresChoices),
		Seed:  m.r.Uint64(),
	}
	if m.r.IntN(windowShare) == 0 {
		q.Window = pick(m.r, windowSizes)
	}
	if m.left == 0 {
		q.NewSession = true
		m.left = sessionMin + m.r.IntN(sessionMax-sessionMin+1)
	}
	m.left--
	return q
}

const (
	feedFrames  = 2400 // frames per live feed
	feedSegment = 600  // frames per stream segment (model refresh)
	feedChunk   = 100  // frames per Append
	feedWindow  = 30   // window follower's tumbling window
	feedK       = 5    // frame follower's K
	feedWindowK = 3    // window follower's K
	feedThres   = 0.9  // both followers' thres
)

// feedSpec is one live feed; Seed seeds its ingest and its queries.
type feedSpec struct {
	Cfg  video.Config
	Seed uint64
}

// streamFeeds draws n live feeds of the streaming-ingest fixture's
// camera (livecam: busy traffic with frequent bursts), each with a fresh
// scene seed. The followers' queries are fixed (streamK and friends):
// a feed's simulated cost swings with K and thres far more than with
// its scenes, and one run streams only a few dozen feeds.
func streamFeeds(seed uint64, n int) []feedSpec {
	r := newRand(seed, 2)
	out := make([]feedSpec, n)
	for i := range out {
		out[i] = feedSpec{
			Cfg: video.Config{
				Name: "livecam", Kind: video.KindTraffic, Class: video.ClassCar,
				Frames: feedFrames, FPS: 30, Seed: r.Uint64(), MeanPopulation: 3, BurstRate: 3,
			},
			Seed: r.Uint64(),
		}
	}
	return out
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }
