package main

import (
	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
)

// planOf compiles a Config into the engine plan the everest package
// compiles it to (its defaults, then the field mapping), so that the
// traced run can call the engine stages one by one. It covers the Config
// fields the workloads set; the fidelity check compares every traced
// answer with the public call's, so a drift here fails the run.
func planOf(c everest.Config) (engine.Plan, error) {
	if c.Threshold == 0 {
		c.Threshold = 0.9
	}
	if c.WindowSampleFrac == 0 {
		c.WindowSampleFrac = 0.1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.02
	}
	if c.SampleCap == 0 {
		c.SampleCap = 30000
	}
	if c.MinSamples == 0 {
		c.MinSamples = 600
	}
	if c.HoldoutFrac == 0 {
		c.HoldoutFrac = 0.1
	}
	if c.Cost == (simclock.CostModel{}) {
		c.Cost = simclock.Default()
	}
	return engine.NewPlan(engine.Plan{
		K:         c.K,
		Threshold: c.Threshold,
		Window: engine.WindowSpec{
			Size:       c.Window,
			Stride:     c.Stride,
			SampleFrac: c.WindowSampleFrac,
		},
		BatchSize: c.BatchSize,
		Procs:     c.Procs,
		Seed:      c.Seed,
		Cost:      c.Cost,
		UseMux:    c.UseMux,
		Ingest: phase1.Options{
			SampleFrac:  c.SampleFrac,
			SampleCap:   c.SampleCap,
			MinSamples:  c.MinSamples,
			HoldoutFrac: c.HoldoutFrac,
			Diff:        c.Diff,
			Proxy:       c.Proxy,
			Cost:        c.Cost,
			Seed:        c.Seed,
			Procs:       c.Procs,
		},
	})
}
