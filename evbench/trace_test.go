package main

import "testing"

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // only 90..100 lies inside op
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},  // grandchild: a's, not op's
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	agg := aggregate(spans)
	if a := agg["op"]; a.Count != 1 || a.TotalS != 100e-9 || a.SelfS != 50e-9 {
		t.Errorf("op aggregate %+v", a)
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, 0, "op")
	tr.do(7, root, "stage", func() {})
	id := tr.begin(7, root, "x")
	tr.end(id)
	tr.rename(id, "y")
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != root || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	if tr.spans[2].Name != "y" {
		t.Errorf("rename: %q", tr.spans[2].Name)
	}
	var off *tracer // tracing off records nothing and does not panic
	off.end(off.begin(1, 0, "op"))
	off.rename(0, "z")
}
