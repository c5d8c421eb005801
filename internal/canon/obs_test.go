package canon

import (
	"bytes"
	"math/rand"
	"testing"

	"dvicl/internal/obs"
)

// TestResultMatchesRecorder: the per-call counts returned in Result must
// equal what the recorder accumulated, and the aggregate prunings should
// actually fire on graphs with symmetry.
func TestResultMatchesRecorder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	graphs := []struct {
		name string
		run  func() (Result, *obs.Recorder)
	}{
		{"petersen", func() (Result, *obs.Recorder) {
			rec := obs.New()
			return Canonical(petersen(), nil, Options{Obs: rec}), rec
		}},
		{"random", func() (Result, *obs.Recorder) {
			rec := obs.New()
			return Canonical(randGraph(r, 30, 3), nil, Options{Obs: rec}), rec
		}},
	}
	for _, tc := range graphs {
		res, rec := tc.run()
		checks := []struct {
			c    obs.Counter
			want int64
		}{
			{obs.SearchNodes, res.Nodes},
			{obs.SearchLeaves, res.Leaves},
			{obs.PruneBestPath, res.PruneBestPath},
			{obs.PruneOrbit, res.PruneOrbit},
			{obs.Backjumps, res.Backjumps},
			{obs.Automorphisms, int64(len(res.Generators))},
		}
		for _, ck := range checks {
			if got := rec.Counter(ck.c); got != ck.want {
				t.Errorf("%s: counter %s = %d, Result says %d", tc.name, ck.c, got, ck.want)
			}
		}
		if res.Nodes == 0 || res.Leaves == 0 {
			t.Errorf("%s: no search effort recorded: %+v", tc.name, res)
		}
	}

	// The Petersen graph has |Aut| = 120, so orbit pruning must have fired.
	res := Canonical(petersen(), nil, Options{})
	if res.PruneOrbit == 0 && res.PruneBestPath == 0 {
		t.Errorf("no pruning on the Petersen graph: %+v", res)
	}
}

// TestNilRecorderSameResult: instrumentation must not perturb the search.
func TestNilRecorderSameResult(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		g := randGraph(r, 10+r.Intn(25), 2+r.Intn(2))
		plain := Canonical(g, nil, Options{})
		observed := Canonical(g, nil, Options{Obs: obs.New()})
		if !bytes.Equal(plain.Cert, observed.Cert) || plain.Nodes != observed.Nodes ||
			plain.Leaves != observed.Leaves {
			t.Fatalf("recorder perturbed the search: %+v vs %+v", plain, observed)
		}
	}
}
