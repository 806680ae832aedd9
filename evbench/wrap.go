package main

import (
	"sync/atomic"
	"time"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// counter accumulates calls, items and busy time from many goroutines.
type counter struct {
	calls, items, ns atomic.Int64
}

func (c *counter) add(items int, d time.Duration) {
	c.calls.Add(1)
	c.items.Add(int64(items))
	c.ns.Add(int64(d))
}

func (c *counter) seconds() float64 { return float64(c.ns.Load()) / 1e9 }

// Oracle phases a Score call is billed to; phaseUnknown is for calls made
// inside a layer the benchmark cannot split from outside.
const (
	phaseUnknown = 0
	phaseLabel   = 1 // Phase 1 sample labelling
	phaseConfirm = 2 // Phase 2 confirmation
)

// layerCounters are what the source and UDF wrappers record in one pass.
type layerCounters struct {
	render counter
	oracle [3]counter // by phase
	phase  atomic.Int32
}

// source wraps src so that Render is counted and timed; every other
// method passes straight through. Render runs on worker goroutines, so
// its time is busy time summed over workers.
func (lc *layerCounters) source(src video.Source) video.Source {
	return tracedSource{Source: src, lc: lc}
}

// udf is a CountUDF whose Score calls are counted and timed, billed to
// the phase last set with setPhase. Only CountUDF is wrapped: the
// tailgating and sentiment UDFs type-assert their source.
func (lc *layerCounters) udf(class string) vision.UDF {
	return tracedUDF{CountUDF: vision.CountUDF{Class: class}, lc: lc}
}

func (lc *layerCounters) setPhase(ph int32) { lc.phase.Store(ph) }

type tracedSource struct {
	video.Source
	lc *layerCounters
}

func (s tracedSource) Render(i int) video.Frame {
	t := time.Now()
	f := s.Source.Render(i)
	s.lc.render.add(1, time.Since(t))
	return f
}

type tracedUDF struct {
	vision.CountUDF
	lc *layerCounters
}

func (u tracedUDF) Score(src video.Source, ids []int) []float64 {
	t := time.Now()
	out := u.CountUDF.Score(src, ids)
	u.lc.oracle[u.lc.phase.Load()].add(len(ids), time.Since(t))
	return out
}
