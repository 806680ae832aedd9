package main

import (
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/stream"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// streamWL: one client ingests live feeds with everest.OpenLive, warm
// refresh on, keeping a frame follower and a window follower answered.
// It appends fixed chunks and seals each feed. Phase 1 and the relation
// layers run incrementally: appends interleave with follower reads, and
// a warm cmdn.Refresh replaces a full train where the drift check allows.
type streamWL struct {
	feeds []streamFeed
}

type streamFeed struct {
	spec  feedSpec
	src   *video.Synthetic
	truth *groundTruth
}

func (w *streamWL) clients() int        { return 1 }
func (w *streamWL) deterministic() bool { return true }
func (w *streamWL) opName() string      { return "Append call" }

func setupStream(seed uint64, d time.Duration) (*streamWL, error) {
	w := &streamWL{}
	for _, spec := range streamFeeds(seed, 16+int(10*d.Seconds())) {
		src, err := video.NewSynthetic(spec.Cfg)
		if err != nil {
			return nil, err
		}
		w.feeds = append(w.feeds, streamFeed{spec: spec, src: src, truth: truthOf(src)})
	}
	return w, nil
}

// configs are the frame and window follower queries. The Phase 1 options
// are the streaming-ingest fixture's (a 10% sample with a 60-sample floor
// and a single small CMDN), under which warm refreshes are taken; under
// the paper-grid default nearly every segment close falls back to a full
// train.
func (f streamFeed) configs() (frame, window everest.Config) {
	frame = everest.Config{
		K: feedK, Threshold: feedThres, Seed: f.spec.Seed,
		SampleFrac: 0.1, MinSamples: 60,
		Proxy: cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 20}}, Epochs: 20},
	}
	window = frame
	window.K, window.Window = feedWindowK, feedWindow
	return frame, window
}

// feedRun is what one feed's stream reports when it is sealed.
type feedRun struct {
	frame, window []everest.LiveDelta
	ingestMS      float64
}

// record keeps every delta of both followers as an answer to check, and
// the feed's outcome for the fidelity check.
func (f streamFeed) record(r *clientResult, began time.Time, fr feedRun) {
	frameCfg, windowCfg := f.configs()
	r.done(began, float64(f.src.NumFrames()), len(fr.frame)+len(fr.window))
	r.simMS += fr.ingestMS
	o := outcome{Phases: map[simclock.Phase]float64{"ingest": fr.ingestMS}}
	for _, d := range fr.frame {
		r.simMS += d.QueryMS
		r.answers = append(r.answers, answer{src: f.src, truth: f.truth, prefix: d.Frontier, k: frameCfg.K, thres: frameCfg.Threshold,
			ids: d.IDs, scores: d.Scores, conf: d.Confidence})
		o.IDs, o.Scores, o.Conf = append(o.IDs, d.IDs...), append(o.Scores, d.Scores...), d.Confidence
	}
	for _, d := range fr.window {
		r.simMS += d.QueryMS
		r.answers = append(r.answers, answer{src: f.src, k: windowCfg.K, thres: windowCfg.Threshold, window: true,
			ids: d.IDs, scores: d.Scores, conf: d.Confidence})
		o.IDs, o.Scores = append(o.IDs, d.IDs...), append(o.Scores, d.Scores...)
	}
	r.outcomes = append(r.outcomes, o)
}

func (w *streamWL) pass(d time.Duration, tr *tracer, lc *layerCounters) (*passResult, error) {
	if tr == nil {
		return closedLoop(1, d, w.op(nil, openPublic)), nil
	}
	sl := &streamLayers{phases: make(map[simclock.Phase]float64)}
	p := closedLoop(1, d, w.op(tr, sl.openTraced(lc)))
	p.phases = sl.phases
	st := sl.stats
	p.layer["stream.warm_ratio"] = per(float64(st.WarmRefreshes), st.Segments)
	p.layer["stream.wasted_label_ratio"] = per(float64(st.WastedLabels), st.EagerLabels)
	// Labelling and confirmation both run inside Append, so the oracle
	// calls are split by the ingestor's own count of the frames it
	// labelled, and the oracle time in proportion.
	all := &lc.oracle[phaseUnknown]
	frames := float64(all.items.Load())
	label := min(float64(st.EagerLabels), frames)
	ops := p.attempted
	p.layer["vision.oracle_frames_per_op.phase1"] = per(label, ops)
	p.layer["vision.oracle_frames_per_op.phase2"] = per(frames-label, ops)
	if frames > 0 {
		p.layer["vision.oracle_s.phase1"] = per(all.seconds()*label/frames, ops)
		p.layer["vision.oracle_s.phase2"] = per(all.seconds()*(frames-label)/frames, ops)
	}
	return p, nil
}

// liveFeed is what the stream workload drives: an everest.LiveStream, or
// in a traced pass the stream.Ingestor it wraps.
type liveFeed interface {
	Append(frames int) error
	Seal() error
	Close()
	segments() int
	run() feedRun // after Seal
}

// op streams feed i through the feed open returns: each Append call is
// one timed operation. In a traced pass, an Append that closed a segment
// is a stream.close span rather than a stream.append one.
func (w *streamWL) op(tr *tracer, open func(streamFeed) (liveFeed, error)) func(int, int, *clientResult) {
	return func(_, i int, r *clientResult) {
		f := w.feeds[i%len(w.feeds)]
		began := time.Now()
		op := int64(i)
		root := tr.begin(op, 0, "stream.feed")
		defer tr.end(root)
		var lf liveFeed
		var err error
		tr.do(op, root, "stream.open", func() { lf, err = open(f) })
		if err != nil {
			r.attempted++
			r.failOp(err)
			return
		}
		defer lf.Close()
		for sent := 0; sent < f.src.NumFrames(); sent += feedChunk {
			r.attempted++
			segs := 0
			if tr != nil {
				segs = lf.segments()
			}
			var id int
			lat := elapsedMS(func() {
				id = tr.begin(op, root, "stream.append")
				err = lf.Append(feedChunk)
				tr.end(id)
			})
			if err != nil {
				r.failOp(err)
				return
			}
			r.latMS = append(r.latMS, lat)
			if tr != nil && lf.segments() > segs {
				tr.rename(id, "stream.close")
			}
		}
		tr.do(op, root, "stream.seal", func() { err = lf.Seal() })
		if err != nil {
			r.attempted++
			r.failOp(err)
			return
		}
		f.record(r, began, lf.run())
	}
}

// openPublic opens a feed the way a user does: OpenLive with the frame
// follower's query, plus the window follower.
func openPublic(f streamFeed) (liveFeed, error) {
	frame, window := f.configs()
	ls, err := everest.OpenLive(f.src, vision.CountUDF{Class: f.src.TargetClass()}, frame, everest.LiveConfig{SegmentFrames: feedSegment, Warm: true})
	if err != nil {
		return nil, err
	}
	wf, err := ls.Follow(window, 0, nil)
	if err != nil {
		ls.Close()
		return nil, err
	}
	return publicFeed{ls, wf}, nil
}

type publicFeed struct {
	*everest.LiveStream
	window *everest.LiveFollower
}

func (p publicFeed) segments() int { return p.Stats().Segments }

func (p publicFeed) run() feedRun {
	return feedRun{frame: p.Deltas(), window: p.window.Deltas(), ingestMS: p.IngestMS()}
}

// streamLayers are the stream layer's counters over a traced pass.
type streamLayers struct {
	stats  stream.Stats
	phases map[simclock.Phase]float64
}

// openTraced opens a feed as OpenLive does, on the ingestor itself and
// over the counting video and UDF, so that the ingestor's per-phase
// charges and counters are readable.
func (sl *streamLayers) openTraced(lc *layerCounters) func(streamFeed) (liveFeed, error) {
	return func(f streamFeed) (liveFeed, error) {
		frameCfg, windowCfg := f.configs()
		frame, err := planOf(frameCfg)
		if err != nil {
			return nil, err
		}
		window, err := planOf(windowCfg)
		if err != nil {
			return nil, err
		}
		g, err := stream.NewIngestor(lc.source(f.src), lc.udf(f.src.TargetClass()), stream.Config{
			SegmentFrames: feedSegment, Refresh: stream.RefreshAuto, Ingest: frame.Ingest,
		})
		if err != nil {
			return nil, err
		}
		t := tracedFeed{Ingestor: g, sl: sl}
		if t.frame, err = g.Follow(stream.FollowConfig{Plan: frame}); err == nil {
			t.window, err = g.Follow(stream.FollowConfig{Plan: window})
		}
		if err != nil {
			g.Close()
			return nil, err
		}
		return t, nil
	}
}

type tracedFeed struct {
	*stream.Ingestor
	frame, window *stream.Follower
	sl            *streamLayers
}

func (t tracedFeed) segments() int { return t.Stats().Segments }

// run also adds the feed's counters and per-phase charges to the pass's.
func (t tracedFeed) run() feedRun {
	st := t.Stats()
	t.sl.stats.Segments += st.Segments
	t.sl.stats.WarmRefreshes += st.WarmRefreshes
	t.sl.stats.EagerLabels += st.EagerLabels
	t.sl.stats.WastedLabels += st.WastedLabels
	for _, ph := range pipelinePhases {
		t.sl.phases[ph] += t.PhaseMS(ph)
	}
	return feedRun{frame: liveDeltas(t.frame), window: liveDeltas(t.window), ingestMS: t.IngestMS()}
}

func liveDeltas(f *stream.Follower) []everest.LiveDelta {
	var out []everest.LiveDelta
	for _, d := range f.Deltas() {
		out = append(out, everest.LiveDelta{Frontier: d.Frontier, IDs: d.IDs, Scores: d.Scores, Confidence: d.Confidence, QueryMS: d.QueryMS})
	}
	return out
}
