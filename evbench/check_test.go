package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/video"
)

func TestAnswerCheck(t *testing.T) {
	src, err := video.NewSynthetic(video.Config{Name: "t", Kind: video.KindTraffic, Frames: 300, Seed: 5, MeanPopulation: 3})
	if err != nil {
		t.Fatal(err)
	}
	truth := truthOf(src)
	top := []int{}
	for i, s := range truth.score {
		if s == truth.desc[0] {
			top = append(top, i)
		}
	}
	good := answer{src: src, truth: truth, k: 1, thres: 0.9, ids: top[:1], scores: truth.desc[:1], conf: 0.95}
	if hit, n, err := good.check(); err != nil || hit != 1 || n != 1 {
		t.Fatalf("good answer: %d/%d, %v", hit, n, err)
	}
	bad := map[string]answer{}
	a := good
	a.conf = 0.5
	bad["low confidence"] = a
	a = good
	a.scores = []float64{truth.desc[0] + 1}
	bad["wrong score"] = a
	a = good
	a.k, a.ids, a.scores = 2, []int{top[0], top[0]}, []float64{truth.desc[0], truth.desc[0]}
	bad["repeated ID"] = a
	a = good
	a.k, a.window, a.ids, a.scores = 2, true, []int{1, 2}, []float64{1, 2}
	bad["ascending scores"] = a
	a = good
	a.degraded = true
	bad["degraded"] = a
	for name, a := range bad {
		if _, _, err := a.check(); err == nil {
			t.Errorf("%s passed the check", name)
		}
	}
}

func TestFidelityFindsTheFirstDifference(t *testing.T) {
	o := outcome{IDs: []int{1}, Scores: []float64{2}, Conf: 0.9}
	o2 := o
	o2.Conf = 0.91
	public := &passResult{clients: [][]outcome{{o, o, o}}}
	if n, err := fidelity(public, &passResult{clients: [][]outcome{{o, o}}}); err != nil || n != 2 {
		t.Errorf("matching prefix: %d, %v", n, err)
	}
	if _, err := fidelity(public, &passResult{clients: [][]outcome{{o, o2}}}); err == nil {
		t.Error("a changed confidence passed")
	}
}

// BENCHMARK.json at the repository root lists exactly the metrics this
// command prints, with the same units.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, code has %v", names, workloads)
	}
}
