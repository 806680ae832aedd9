// Command evbench is the repository's benchmark. One run sets up one
// workload from a seed, drives it as closed-loop clients for a fixed
// time, checks every answer, and prints its metrics; the last line of
// standard output is one JSON object with the result.
//
//	bash evbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload twice over the same inputs, untraced and then traced
// (spans around every call it makes into a layer, counting wrappers
// around the video and the UDF), checks that the traced answers are
// bit-identical to the public calls', and prints the per-layer metrics.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// outDir is where runs leave their result and trace files, inside the
// checkout the benchmark runs in.
const outDir = ".bench_build/evbench"

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 3

// workload is a set-up workload: its closed-loop client count, what one
// operation is, and its passes.
type workload interface {
	clients() int
	opName() string
	// deterministic reports whether each client's answers are a function
	// of the seed alone, so that a traced pass must reproduce them.
	deterministic() bool
	// pass runs the closed loop for d: through the public API when tr is
	// nil, else traced, with lc counting the video and UDF calls.
	pass(d time.Duration, tr *tracer, lc *layerCounters) (*passResult, error)
}

var workloads = []string{"oneshot", "serve", "shared", "stream"}

func setup(name string, seed uint64, d time.Duration, traced bool, tmp string) (workload, error) {
	switch name {
	case "oneshot":
		return setupOneshot(seed, d)
	case "serve":
		return setupServe(seed, false, traced, tmp)
	case "shared":
		return setupServe(seed, true, traced, tmp)
	case "stream":
		return setupStream(seed, d)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
}

// stamp identifies the host and the run in every output.
type stamp struct {
	Workload       string  `json:"workload"`
	Seed           uint64  `json:"seed"`
	Seconds        int     `json:"seconds"`
	Trace          int     `json:"trace"`
	NumCPU         int     `json:"num_cpu"`
	CPUModel       string  `json:"cpu_model"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Clients        int     `json:"clients"`
	Op             string  `json:"op"`
	Ops            int     `json:"ops"`
	Failed         int     `json:"failed"`
	ErrorRate      float64 `json:"error_rate"`
	LatencySamples int     `json:"latency_samples"`
	TailPercentile float64 `json:"latency_tail_percentile"`
	TailBeyond     int     `json:"latency_tail_samples_beyond"`
	SetupRuns      int     `json:"setup_runs"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: oneshot, serve, shared or stream")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "seconds one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "evbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "evbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(outDir, "tmp", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(tmp)
	d := time.Duration(seconds) * time.Second

	reps := setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	var w workload
	var setupS []float64
	for r := 0; r < reps; r++ {
		w = nil
		runtime.GC()
		t := time.Now()
		var err error
		if w, err = setup(name, seed, d, traced, filepath.Join(tmp, fmt.Sprintf("setup%d", r))); err != nil {
			return fmt.Errorf("setting up %s: %w", name, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}

	st := hostStamp()
	st.Workload, st.Seed, st.Seconds, st.Clients, st.Op, st.SetupRuns = name, seed, seconds, w.clients(), w.opName(), reps
	var metrics map[string]float64
	var defs []metricDef
	var problems []error
	var attempted, failed int
	var tr *tracer
	if !traced {
		p, err := w.pass(d, nil, nil)
		if err != nil {
			return err
		}
		precision := checkAnswers(p)
		lat := summarize(p.latMS)
		st.LatencySamples, st.TailPercentile, st.TailBeyond = lat.N, lat.TailPct, lat.TailBeyond
		metrics, defs = endToEndMetrics(p, medianOf(setupS), precision, peakRSSMB(), lat), endToEnd
		attempted, failed, problems = p.attempted, p.failed, p.errs
	} else {
		st.Trace = 1
		// An untraced pass and a traced pass over the same inputs, half
		// the time each: their throughput gap is the tracing overhead.
		public, err := w.pass(d/2, nil, nil)
		if err != nil {
			return err
		}
		lc := &layerCounters{}
		tr = newTracer()
		p, err := w.pass(d/2, tr, lc)
		if err != nil {
			return err
		}
		checkAnswers(public)
		checkAnswers(p)
		attempted, failed = public.attempted+p.attempted, public.failed+p.failed
		problems = append(append([]error(nil), public.errs...), p.errs...)
		compared := 0
		if w.deterministic() {
			if compared, err = fidelity(public, p); err != nil {
				problems = append(problems, fmt.Errorf("traced answers differ from the public calls': %w", err))
			}
		}
		if err := replayRelations(tr, sample(p.relations, maxRelationReplays)); err != nil {
			return err
		}
		lat := summarize(p.latMS)
		st.LatencySamples, st.TailPercentile, st.TailBeyond = lat.N, lat.TailPct, lat.TailBeyond
		metrics, defs = perLayerMetrics(p, public, aggregate(tr.spans), lc, compared), perLayer
	}
	st.Ops, st.Failed, st.ErrorRate = attempted, failed, per(float64(failed), attempted)
	if traced {
		if err := tr.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed)), st); err != nil {
			return err
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := metrics[m.Name]
		if !finite(v) {
			problems = append(problems, fmt.Errorf("metric %s is %v", m.Name, v))
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	res.Correct = res.Correct && len(problems) == 0
	return report(st, defs, res, problems)
}

// maxRelationReplays bounds the relation builds a traced run times again
// after its pass; they are spread evenly over the pass.
const maxRelationReplays = 200

func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// report prints the stamp, every metric by name and unit, any problem,
// and last the result line, and saves the same under outDir.
func report(st stamp, defs []metricDef, res result, problems []error) error {
	line, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", line)
	for _, m := range defs {
		fmt.Printf("metric %-42s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	msgs := make([]string, len(problems))
	for i, p := range problems {
		msgs[i] = p.Error()
		fmt.Printf("problem %s\n", p)
	}
	saved, err := json.MarshalIndent(struct {
		Stamp    stamp    `json:"stamp"`
		Result   result   `json:"result"`
		Problems []string `json:"problems"`
	}{st, res, msgs}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", st.Workload, st.Seed, st.Trace))
	if err := os.WriteFile(path, saved, 0o644); err != nil {
		return err
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
