package main

import (
	"reflect"
	"testing"
)

func TestSeedFixesTheVideoSequence(t *testing.T) {
	a, b := oneshotVideos(42, 12), oneshotVideos(42, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two video sequences")
	}
	if reflect.DeepEqual(a, oneshotVideos(43, 12)) {
		t.Fatal("two seeds gave one video sequence")
	}
	// Every round of five covers the five counting datasets.
	seen := map[string]bool{}
	for _, v := range a[:5] {
		seen[v.Cfg.Name] = true
		if v.Cfg.Frames != oneshotFrames {
			t.Errorf("%s has %d frames", v.Cfg.Name, v.Cfg.Frames)
		}
	}
	if len(seen) != 5 {
		t.Errorf("first round covers %d datasets, want 5", len(seen))
	}
	if !reflect.DeepEqual(streamFeeds(42, 5), streamFeeds(42, 5)) {
		t.Fatal("one seed gave two feed sequences")
	}
}

func TestSeedFixesEachClientsQueryMix(t *testing.T) {
	draw := func(seed uint64, client, n int) []query {
		m := newQueryMix(seed, client)
		out := make([]query, n)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a := draw(7, 0, 500)
	if !reflect.DeepEqual(a, draw(7, 0, 500)) {
		t.Fatal("one seed gave two query mixes")
	}
	if reflect.DeepEqual(a, draw(7, 1, 500)) || reflect.DeepEqual(a, draw(8, 0, 500)) {
		t.Fatal("clients or seeds share a query mix")
	}
	windows, renewals := 0, 0
	for i, q := range a {
		if q.Window > 0 {
			windows++
		}
		if q.NewSession {
			renewals++
		} else if i == 0 {
			t.Error("the first query must open sessions")
		}
	}
	// About one query in five is a window query, and sessions last
	// sessionMin..sessionMax queries.
	if windows < 60 || windows > 140 {
		t.Errorf("%d window queries in 500", windows)
	}
	if renewals < 500/sessionMax || renewals > 500/sessionMin+1 {
		t.Errorf("%d session renewals in 500 queries", renewals)
	}
}
