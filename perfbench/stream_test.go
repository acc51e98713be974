package main

import "testing"

func streamKeys(seed int64) []string {
	var out []string
	for _, r := range warmStream(seed, modelOnlyRequests(), measuredRequests()) {
		out = append(out, r.key)
	}
	return out
}

func TestWarmStreamIsPureFunctionOfSeed(t *testing.T) {
	a, b, c := streamKeys(7), streamKeys(7), streamKeys(8)
	if len(a) != warmRequests {
		t.Fatalf("%d requests, want %d", len(a), warmRequests)
	}
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two streams of seed 7", i)
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 give the same stream")
	}
}

func TestWarmStreamMeasuresEveryTwentieth(t *testing.T) {
	for i, r := range warmStream(3, modelOnlyRequests(), measuredRequests()) {
		want := i%measuredEvery == measuredEvery-1
		if r.body.Measure != want {
			t.Fatalf("request %d measured=%v, want %v", i, r.body.Measure, want)
		}
		if r.body.Measure && r.body.Platform != measuredTarget {
			t.Fatalf("measured request %d goes to %s", i, r.body.Platform)
		}
	}
}

func TestRequestSetSizes(t *testing.T) {
	m, x := modelOnlyRequests(), measuredRequests()
	if want := 37 * len(servePlatforms) * len(serveObjectives) * len(serveEndpoints); len(m) != want {
		t.Errorf("%d model-only requests, want %d", len(m), want)
	}
	if len(x) != 37 {
		t.Errorf("%d measured requests, want 37", len(x))
	}
	seen := map[string]bool{}
	for _, r := range append(m, x...) {
		if seen[r.key] {
			t.Fatalf("duplicate request %s", r.key)
		}
		seen[r.key] = true
	}
}
