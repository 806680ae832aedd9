package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/oraclemux"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// sharedCacheMaxLabels caps the shared workload's label caches well
// below the labels a pass confirms, so publishes, WAL appends and
// evictions all reach a steady state.
const sharedCacheMaxLabels = 300

// serve: analysts query prebuilt indexes. Each client keeps one session
// per video and replaces them every sessionMin..sessionMax queries, so
// its label cache keeps cycling from cold to warm; Phase 2 does all the
// work. With shared set, the clients run as the multi-user deployment:
// shared sessions on the process-wide cache, coalescing, the oracle mux
// and a durable label log, under a cache cap below the working set.
type serve struct {
	seed    uint64
	shared  bool
	videos  []servedVideo
	nclient int
	tmp     string // shared: per-process directory for durable logs
	passes  int
}

type servedVideo struct {
	src   *video.Synthetic
	truth *groundTruth
	ix    *everest.Index
	art   *engine.Artifact // the index's artifact, built again for the traced pass
}

func (w *serve) clients() int   { return w.nclient }
func (w *serve) opName() string { return "query" }

// deterministic: private sessions make each client's answers a function
// of its query sequence; shared clients race on one cache.
func (w *serve) deterministic() bool { return !w.shared }

// setupServe builds an index per served video. The indexes are the same
// for every seed; the seed draws the query mix. A traced run also builds
// each index's engine artifact, which the decomposed queries and the
// relation replay read.
func setupServe(seed uint64, shared, traced bool, tmp string) (*serve, error) {
	w := &serve{seed: seed, shared: shared, nclient: min(2, runtime.NumCPU()), tmp: tmp}
	for i, name := range servedDatasets {
		spec, err := video.DatasetByName(name)
		if err != nil {
			return nil, err
		}
		src, err := spec.Build(servedFrames)
		if err != nil {
			return nil, err
		}
		cfg := everest.Config{K: 1, Seed: uint64(i + 1)}
		udf := vision.CountUDF{Class: src.TargetClass()}
		ix, err := everest.BuildIndex(src, udf, cfg)
		if err != nil {
			return nil, err
		}
		v := servedVideo{src: src, truth: truthOf(src), ix: ix}
		if traced {
			if v.art, err = ingest(src, udf, cfg); err != nil {
				return nil, err
			}
		}
		w.videos = append(w.videos, v)
	}
	return w, nil
}

// ingest is BuildIndex's ingest stage, keeping the artifact in hand.
func ingest(src video.Source, udf vision.UDF, cfg everest.Config) (*engine.Artifact, error) {
	plan, err := planOf(cfg)
	if err != nil {
		return nil, err
	}
	pool := plan.WorkerPool()
	if pool != nil {
		defer pool.Close()
	}
	opt := plan.Ingest
	opt.Pool = pool
	return engine.Ingest(src, udf, opt, simclock.NewClock())
}

func (w *serve) config(q query, dirs []string) everest.Config {
	c := everest.Config{K: q.K, Threshold: q.Thres, Window: q.Window, Seed: q.Seed}
	if w.shared {
		c.Coalesce, c.UseMux = true, true
		c.DurableDir = dirs[q.Video]
		c.CacheMaxLabels = sharedCacheMaxLabels
	}
	return c
}

// record keeps one query's answer and outcome.
func (w *serve) record(r *clientResult, q query, began time.Time, lat float64, out *engine.Outcome) {
	v := w.videos[q.Video]
	r.latMS = append(r.latMS, lat)
	r.done(began, float64(v.src.NumFrames()), 1)
	r.charge(out.Clock)
	r.addEngine(out.Stats)
	a := answer{src: v.src, k: q.K, thres: q.Thres, window: q.Window > 0,
		ids: out.IDs, scores: out.Scores, conf: out.Confidence, degraded: out.Degraded != nil}
	if !a.window {
		a.truth = v.truth
	}
	r.answers = append(r.answers, a)
	r.outcomes = append(r.outcomes, outcomeOf(out))
}

// servePass is one pass's client state: query mixes, sessions and, for a
// shared pass, its durable directories.
type servePass struct {
	mixes    []*queryMix
	sessions [][]*everest.Session        // [client][video]
	caches   [][]*labelstore.SharedCache // [client][video], decomposed queries
	dirs     []string
}

// newPass starts every client's query mix from the beginning. A shared
// pass also starts from fresh process-wide caches and fresh durable
// directories, so one pass never warms the next.
func (w *serve) newPass() (*servePass, error) {
	p := &servePass{}
	for c := 0; c < w.nclient; c++ {
		p.mixes = append(p.mixes, newQueryMix(w.seed, c))
		p.sessions = append(p.sessions, make([]*everest.Session, len(w.videos)))
		p.caches = append(p.caches, make([]*labelstore.SharedCache, len(w.videos)))
	}
	if w.shared {
		labelstore.ResetForTest()
		w.passes++
		for _, name := range servedDatasets {
			dir := filepath.Join(w.tmp, fmt.Sprintf("pass%d", w.passes), name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			p.dirs = append(p.dirs, dir)
		}
	}
	return p, nil
}

func (w *serve) pass(d time.Duration, tr *tracer, lc *layerCounters) (*passResult, error) {
	ps, err := w.newPass()
	if err != nil {
		return nil, err
	}
	switch {
	case tr == nil:
		p := closedLoop(w.nclient, d, w.public(ps, nil, nil))
		p.bucketed = true
		return p, nil
	case w.shared:
		mux0 := oraclemux.Shared().Stats()
		lc.setPhase(phaseConfirm)
		p := closedLoop(w.nclient, d, w.public(ps, tr, lc))
		return p, w.afterSharedPass(ps, p, mux0)
	default:
		lc.setPhase(phaseConfirm)
		return closedLoop(w.nclient, d, w.decomposed(ps, tr, lc)), nil
	}
}

// public runs each query through a Session. With lc set, the sessions
// read the video and UDF through the counting wrappers, and each query
// keeps its label snapshot for the relation replay.
func (w *serve) public(p *servePass, tr *tracer, lc *layerCounters) func(int, int, *clientResult) {
	return func(c, i int, r *clientResult) {
		q := p.mixes[c].next()
		r.attempted++
		if q.NewSession {
			for v := range w.videos {
				var err error
				if p.sessions[c][v], err = w.session(v, lc); err != nil {
					r.failOp(err)
					return
				}
			}
		}
		s := p.sessions[c][q.Video]
		r.cachedLabels += float64(s.CachedLabels())
		r.cachedN++
		op := int64(c)<<32 | int64(i)
		var snap labelstore.Map
		if lc != nil {
			snap, _ = labelstore.For(sharedKey(w.videos[q.Video].src)).Snapshot()
		}
		cfg := w.config(q, p.dirs)
		began := time.Now()
		var res *everest.Result
		var err error
		lat := elapsedMS(func() {
			root := tr.begin(op, 0, "shared.query")
			res, err = s.Query(cfg)
			tr.end(root)
		})
		if err != nil {
			r.failOp(err)
			return
		}
		w.record(r, q, began, lat, engineOutcome(res))
		if lc != nil {
			r.relations = append(r.relations, relationJob{op: op, art: w.videos[q.Video].art, plan: mustPlan(cfg), labels: snap})
		}
	}
}

func (w *serve) session(v int, lc *layerCounters) (*everest.Session, error) {
	x := w.videos[v]
	var src video.Source = x.src
	var udf vision.UDF = vision.CountUDF{Class: x.src.TargetClass()}
	if lc != nil {
		src, udf = lc.source(src), lc.udf(x.src.TargetClass())
	}
	if w.shared {
		return everest.NewSharedSession(x.ix, src, udf)
	}
	return everest.NewSession(x.ix, src, udf)
}

// sharedKey names the process-wide label cache of a (video, CountUDF)
// pair the way shared sessions do; afterSharedPass checks it still does.
func sharedKey(src video.Source) string {
	return fmt.Sprintf("%s\x00%d\x00%s", src.Name(), src.NumFrames(), vision.CountUDF{Class: src.TargetClass()}.Name())
}

// decomposed runs each query as a private Session would — snapshot the
// client's label cache, execute the plan over an overlay of it, publish
// the fresh labels — with a span around each step, over the counting
// video and UDF.
func (w *serve) decomposed(p *servePass, tr *tracer, lc *layerCounters) func(int, int, *clientResult) {
	return func(c, i int, r *clientResult) {
		q := p.mixes[c].next()
		r.attempted++
		if q.NewSession {
			for v := range w.videos {
				p.caches[c][v] = labelstore.NewSharedCache()
			}
		}
		v := w.videos[q.Video]
		cache := p.caches[c][q.Video]
		r.cachedLabels += float64(cache.Len())
		r.cachedN++
		op := int64(c)<<32 | int64(i)
		cfg := w.config(q, nil)
		plan, err := planOf(cfg)
		if err == nil {
			err = plan.ValidateFor(v.art.TotalFrames)
		}
		var out *engine.Outcome
		var snap labelstore.Map
		began := time.Now()
		lat := elapsedMS(func() {
			if err != nil {
				return
			}
			root := tr.begin(op, 0, "serve.query")
			tr.do(op, root, "labelstore.snapshot", func() { snap, _ = cache.Snapshot() })
			labels := labelstore.NewOverlay(snap)
			tr.do(op, root, "engine.execute", func() {
				out, err = engine.Execute(plan, engine.Binding{Src: lc.source(v.src), UDF: lc.udf(v.src.TargetClass()), Artifact: v.art, Labels: labels})
			})
			tr.do(op, root, "labelstore.publish", func() { cache.Publish(labels.Fresh()) })
			tr.end(root)
		})
		if err != nil {
			r.failOp(err)
			return
		}
		w.record(r, q, began, lat, out)
		r.relations = append(r.relations, relationJob{op: op, art: v.art, plan: plan, labels: snap})
	}
}

// afterSharedPass reads the shared layers' counters for one pass: the
// mux's consolidation, the durable log's size, and a check that the
// relation replay read the caches the sessions used.
func (w *serve) afterSharedPass(p *servePass, res *passResult, mux0 oraclemux.Stats) error {
	mux := oraclemux.Shared().Stats()
	req, launches := mux.Requests-mux0.Requests, mux.Launches-mux0.Launches
	if launches > 0 {
		res.layer["oraclemux.consolidation"] = float64(req) / float64(launches)
	}
	res.layer["oraclemux.launches"] = per(float64(launches), res.queries)
	var bytes int64
	for _, dir := range p.dirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err == nil {
				bytes += info.Size()
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	res.layer["durable.wal_bytes_per_query"] = per(float64(bytes), res.queries)
	for c := range p.sessions {
		for v, s := range p.sessions[c] {
			if s == nil {
				continue
			}
			if got := labelstore.For(sharedKey(w.videos[v].src)).Len(); got != s.CachedLabels() {
				return fmt.Errorf("shared cache key no longer matches the sessions' cache (%d vs %d labels)", got, s.CachedLabels())
			}
		}
	}
	return nil
}
