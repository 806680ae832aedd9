package main

import (
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/xrand"
)

// oneshot: one analyst asks one Top-K question of each new video with
// everest.Run and the default Config (the paper's 4×3 CMDN grid) — the
// paper's Fig. 4 setting, where Phase 1 does nearly all the work.
type oneshot struct {
	videos []oneshotVideo
}

type oneshotVideo struct {
	spec  videoSpec
	src   *video.Synthetic
	truth *groundTruth
}

func (w *oneshot) clients() int        { return 1 }
func (w *oneshot) deterministic() bool { return true }
func (w *oneshot) opName() string      { return "video answered" }

// setupOneshot generates far more videos than a pass can answer, with
// their ground truth, so that a pass never reuses one.
func setupOneshot(seed uint64, d time.Duration) (*oneshot, error) {
	w := &oneshot{}
	for _, spec := range oneshotVideos(seed, 16+int(20*d.Seconds())) {
		src, err := video.NewSynthetic(spec.Cfg)
		if err != nil {
			return nil, err
		}
		w.videos = append(w.videos, oneshotVideo{spec: spec, src: src, truth: truthOf(src)})
	}
	return w, nil
}

func (v oneshotVideo) config() everest.Config {
	return everest.Config{K: v.spec.K, Threshold: v.spec.Thres, Seed: v.spec.Seed}
}

// record keeps an answer and its outcome for the checks.
func (v oneshotVideo) record(r *clientResult, began time.Time, lat float64, out *engine.Outcome) {
	r.latMS = append(r.latMS, lat)
	r.done(began, float64(v.src.NumFrames()), 1)
	r.charge(out.Clock)
	r.addEngine(out.Stats)
	r.answers = append(r.answers, answer{src: v.src, truth: v.truth, k: v.spec.K, thres: v.spec.Thres,
		ids: out.IDs, scores: out.Scores, conf: out.Confidence, degraded: out.Degraded != nil})
	r.outcomes = append(r.outcomes, outcomeOf(out))
}

// outcomeOf is what the fidelity check compares of an answer.
func outcomeOf(out *engine.Outcome) outcome {
	o := outcome{IDs: out.IDs, Scores: out.Scores, Conf: out.Confidence, Phases: make(map[simclock.Phase]float64)}
	for _, ph := range pipelinePhases {
		o.Phases[ph] = out.Clock.PhaseMS(ph)
	}
	return o
}

// engineOutcome carries a public Result in the engine's answer shape.
func engineOutcome(res *everest.Result) *engine.Outcome {
	return &engine.Outcome{IDs: res.IDs, Scores: res.Scores, Confidence: res.Confidence,
		Stats: res.EngineStats, Clock: res.Clock, Degraded: res.Degraded}
}

func (w *oneshot) pass(d time.Duration, tr *tracer, lc *layerCounters) (*passResult, error) {
	if tr == nil {
		return closedLoop(1, d, w.public), nil
	}
	p := closedLoop(1, d, w.traced(tr, lc))
	var retained, frames int
	for _, j := range p.relations {
		retained += len(j.art.Retained)
		frames += j.art.TotalFrames
	}
	p.layer["diffdet.retained_ratio"] = per(float64(retained), frames)
	return p, nil
}

// public answers video i with everest.Run.
func (w *oneshot) public(_, i int, r *clientResult) {
	v := w.videos[i%len(w.videos)]
	r.attempted++
	began := time.Now()
	var res *everest.Result
	var err error
	lat := elapsedMS(func() {
		res, err = everest.Run(v.src, vision.CountUDF{Class: v.src.TargetClass()}, v.config())
	})
	if err != nil {
		r.failOp(err)
		return
	}
	v.record(r, began, lat, engineOutcome(res))
}

// traced answers video i by calling the stages everest.Run composes —
// PlanSamples, Label, Samples, cmdn.Train, AssembleState, Capture,
// Execute — each inside a span, over a counting source and UDF.
func (w *oneshot) traced(tr *tracer, lc *layerCounters) func(int, int, *clientResult) {
	return func(_, i int, r *clientResult) {
		v := w.videos[i%len(w.videos)]
		r.attempted++
		var out *engine.Outcome
		var art *engine.Artifact
		var err error
		op := int64(i)
		began := time.Now()
		lat := elapsedMS(func() {
			root := tr.begin(op, 0, "oneshot.video")
			art, out, err = ingestAndExecute(tr, op, root, lc, lc.source(v.src), lc.udf(v.src.TargetClass()), v.config())
			tr.end(root)
		})
		if err != nil {
			r.failOp(err)
			return
		}
		v.record(r, began, lat, out)
		r.relations = append(r.relations, relationJob{op: op, art: art, plan: mustPlan(v.config())})
	}
}

func mustPlan(c everest.Config) engine.Plan {
	p, err := planOf(c)
	if err != nil {
		panic(err) // the workloads only generate valid configs
	}
	return p
}

// ingestAndExecute is engine.Run taken apart at its exported stage
// boundaries, with a span around each stage.
func ingestAndExecute(tr *tracer, op int64, parent int, lc *layerCounters, src video.Source, udf vision.UDF, cfg everest.Config) (*engine.Artifact, *engine.Outcome, error) {
	plan, err := planOf(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.ValidateFor(src.NumFrames()); err != nil {
		return nil, nil, err
	}
	clock := simclock.NewClock()
	pool := plan.WorkerPool()
	if pool != nil {
		defer pool.Close()
	}
	opt := plan.Ingest
	opt.Pool = pool

	var sp phase1.SamplePlan
	tr.do(op, parent, "phase1.plan_samples", func() { sp, err = phase1.PlanSamples(src.NumFrames(), opt) })
	if err != nil {
		return nil, nil, err
	}
	var trainY, holdY []float64
	lc.setPhase(phaseLabel)
	tr.do(op, parent, "phase1.label", func() {
		trainY = phase1.Label(src, udf, sp.TrainIdx, opt, clock)
		holdY = phase1.Label(src, udf, sp.HoldIdx, opt, clock)
	})
	var train, hold []cmdn.Sample
	tr.do(op, parent, "phase1.featurize", func() {
		train = phase1.Samples(src, opt.Proxy.Arch, sp.TrainIdx, trainY, opt.Procs, opt.Pool)
		hold = phase1.Samples(src, opt.Proxy.Arch, sp.HoldIdx, holdY, opt.Procs, opt.Pool)
	})
	var proxy *cmdn.Proxy
	tr.do(op, parent, "cmdn.train", func() { proxy, _, err = cmdn.Train(train, hold, proxyConfig(src, opt), clock, opt.Cost) })
	if err != nil {
		return nil, nil, err
	}
	var st *phase1.State
	tr.do(op, parent, "diffdet.assemble", func() { st, err = phase1.AssembleState(src, proxy, opt, sp, trainY, holdY, clock) })
	if err != nil {
		return nil, nil, err
	}
	var art *engine.Artifact
	tr.do(op, parent, "engine.capture", func() { art = engine.Capture(st, udf, opt.Cost, clock) })
	var out *engine.Outcome
	lc.setPhase(phaseConfirm)
	tr.do(op, parent, "engine.execute", func() {
		out, err = engine.Execute(plan, engine.Binding{Src: src, UDF: udf, Artifact: art, Clock: clock, Pool: pool})
	})
	return art, out, err
}

// proxyConfig is the CMDN configuration phase1.RunLabelled derives.
func proxyConfig(src video.Source, opt phase1.Options) cmdn.Config {
	c := opt.Proxy
	c.FrameW, c.FrameH = src.Resolution()
	if c.Seed == 0 {
		c.Seed = xrand.New(opt.Seed).Split("everest/phase1").Split("cmdn").Uint64()
	}
	if c.Procs == 0 {
		c.Procs = opt.Procs
	}
	return c
}
