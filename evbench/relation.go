package main

import (
	"fmt"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/vision"
)

// relationJob is one relation build a traced pass ran inside Execute,
// kept so that it can be timed again as its own call on the same inputs.
type relationJob struct {
	op     int64
	art    *engine.Artifact
	plan   engine.Plan
	labels labelstore.Map // the label-cache snapshot the query pinned
}

// replayRelations times each job's relation build in a root span of its
// operation.
func replayRelations(tr *tracer, jobs []relationJob) error {
	qopt := vision.CountUDF{}.Quantize()
	for _, j := range jobs {
		labels := labelstore.NewOverlay(j.labels)
		var err error
		tr.do(j.op, 0, "engine.relation", func() {
			if j.plan.Window.Enabled() {
				_, err = j.art.WindowRelation(j.plan.Window, qopt, labels, j.plan.Procs, nil)
			} else {
				_, err = j.art.FrameRelation(qopt, labels)
			}
		})
		if err != nil {
			return fmt.Errorf("relation replay: %w", err)
		}
	}
	return nil
}
