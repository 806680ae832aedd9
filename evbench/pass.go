package main

import (
	"runtime"
	"sync"
	"time"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/simclock"
)

// outcome is what the fidelity check compares between a public-API pass
// and a traced pass over the same inputs: the answer and its simulated
// cost by phase.
type outcome struct {
	IDs    []int
	Scores []float64
	Conf   float64
	Phases map[simclock.Phase]float64
}

// unit is a piece of completed work the throughput is read from: a query
// (serve, shared), or a whole video (oneshot) or feed (stream). end is
// when it completed, since the pass started, and dur how long it took,
// both in seconds.
type unit struct {
	end, dur float64
	frames   float64
	queries  int
}

// clientResult is what one closed-loop client measured.
type clientResult struct {
	start     time.Time // the pass's start
	units     []unit
	latMS     []float64
	attempted int
	failed    int
	errs      []error
	simMS     float64
	phases    map[simclock.Phase]float64
	answers   []answer
	outcomes  []outcome // in the client's sequence order
	// relations are a traced pass's relation-build inputs, replayed
	// after the pass to time the build as its own call.
	relations []relationJob

	engine       core.Stats // summed over answers that report them
	engineN      int
	cachedLabels float64 // summed label-cache size at query start
	cachedN      int
}

func newClientResult() *clientResult {
	return &clientResult{phases: make(map[simclock.Phase]float64)}
}

// done records a completed unit of work that began at began and
// answered frames video frames and queries queries.
func (r *clientResult) done(began time.Time, frames float64, queries int) {
	now := time.Now()
	r.units = append(r.units, unit{end: now.Sub(r.start).Seconds(), dur: now.Sub(began).Seconds(), frames: frames, queries: queries})
}

// fail records a failed operation or answer check.
func (r *clientResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// failOp records an operation that returned no answer; its empty
// outcome keeps the client's outcomes aligned with its sequence.
func (r *clientResult) failOp(err error) {
	r.fail(err)
	r.outcomes = append(r.outcomes, outcome{})
}

// charge adds an answer's simulated cost.
func (r *clientResult) charge(c *simclock.Clock) {
	r.simMS += c.TotalMS()
	for _, ph := range pipelinePhases {
		r.phases[ph] += c.PhaseMS(ph)
	}
}

func (r *clientResult) addEngine(s core.Stats) {
	addStats(&r.engine, s)
	r.engineN++
}

func addStats(a *core.Stats, b core.Stats) {
	a.Examined += b.Examined
	a.Cleaned += b.Cleaned
	a.Iterations += b.Iterations
	a.Pruned += b.Pruned
}

// pipelinePhases are the simulated-clock phases the Everest pipeline
// charges (the baseline phases never appear in these workloads).
var pipelinePhases = []simclock.Phase{
	simclock.PhaseLabelSamples, simclock.PhaseTrainCMDN, simclock.PhasePopulateD0,
	simclock.PhaseDiffDetect, simclock.PhaseSelect, simclock.PhaseConfirm,
	simclock.PhaseTopkProb, simclock.PhaseRetryBackoff,
}

// passResult is one measured pass: every client's results merged, with
// the wall time and the allocation and GC counts of the whole process.
type passResult struct {
	clientResult
	frames  float64 // video frames answered
	queries int     // answers delivered
	wall    time.Duration
	alloc   uint64
	gcs     uint32
	clients [][]outcome // per client, for the fidelity check
	layer   map[string]float64
	// bucketed reads throughput from one-second windows of completions
	// rather than from each unit's own duration.
	bucketed bool
}

// rates are the pass's throughput in frames and queries answered per
// wall-clock second: the median over one-second windows of completions
// when bucketed, else the median over units of work. A median of many
// windows rides out a slow spell on the host that a total over the pass
// would average in.
func (p *passResult) rates() (framesPerS, queriesPerS float64) {
	var fs, qs []float64
	if n := int(p.wall.Seconds()); p.bucketed && n > 0 {
		fs, qs = make([]float64, n), make([]float64, n)
		for _, u := range p.units {
			if i := int(u.end); i < n {
				fs[i] += u.frames
				qs[i] += float64(u.queries)
			}
		}
	} else {
		for _, u := range p.units {
			fs = append(fs, u.frames/u.dur)
			qs = append(qs, float64(u.queries)/u.dur)
		}
	}
	return medianOf(fs), medianOf(qs)
}

// closedLoop runs clients concurrently; each calls op with its running
// operation index until d has passed, finishing the operation in
// progress. Each client waits for its own answer before asking again.
func closedLoop(clients int, d time.Duration, op func(client, i int, r *clientResult)) *passResult {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	rs := make([]*clientResult, clients)
	var wg sync.WaitGroup
	for c := range rs {
		rs[c] = newClientResult()
		rs[c].start = start
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				op(c, i, rs[c])
			}
		}(c)
	}
	wg.Wait()
	p := &passResult{wall: time.Since(start), layer: make(map[string]float64)}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.gcs = after.NumGC - before.NumGC
	p.phases = make(map[simclock.Phase]float64)
	for _, r := range rs {
		p.merge(r)
		p.clients = append(p.clients, r.outcomes)
	}
	return p
}

func (p *passResult) merge(r *clientResult) {
	p.units = append(p.units, r.units...)
	for _, u := range r.units {
		p.frames += u.frames
		p.queries += u.queries
	}
	p.latMS = append(p.latMS, r.latMS...)
	p.attempted += r.attempted
	p.failed += r.failed
	p.errs = append(p.errs, r.errs...)
	p.simMS += r.simMS
	for ph, ms := range r.phases {
		p.phases[ph] += ms
	}
	p.answers = append(p.answers, r.answers...)
	p.relations = append(p.relations, r.relations...)
	addStats(&p.engine, r.engine)
	p.engineN += r.engineN
	p.cachedLabels += r.cachedLabels
	p.cachedN += r.cachedN
}

// elapsedMS times fn in milliseconds.
func elapsedMS(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
