package canon

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"dvicl/internal/gen"
)

// TestPG2EffortIndependentOfLabeling: the point–line incidence graph of
// PG(2,q) is flag-transitive, so every labeling poses the same search. The
// search must find the whole group, 2·|PΓL(3,q)| (collineations and
// dualities), in every labeling, and under PolicyBliss its leaves and
// generators must stay few in every labeling too. Automorphism
// backjumping against the first leaf alone let one labeling of pg2-7
// (seed 1, the dvbench panel's) search 602 leaves and record 302
// generators, because most automorphisms there are found against the
// best leaf.
func TestPG2EffortIndependentOfLabeling(t *testing.T) {
	cases := []struct {
		q        int
		policies []Policy
		aut      int64
		bounded  bool // assert the leaf and generator bounds
	}{
		{3, []Policy{PolicyBliss, PolicyNauty, PolicyTraces}, 11_232, false},
		{4, []Policy{PolicyBliss, PolicyNauty, PolicyTraces}, 241_920, false},
		{5, []Policy{PolicyBliss, PolicyNauty, PolicyTraces}, 744_000, true},
		{7, []Policy{PolicyBliss}, 11_261_376, true},
	}
	const maxLeaves, maxGens = 32, 16
	for _, tc := range cases {
		g, err := gen.PG2(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			h := g.Permute(rand.New(rand.NewSource(seed)).Perm(g.N()))
			for _, pol := range tc.policies {
				t.Run(fmt.Sprintf("pg2-%d/seed%d/%s", tc.q, seed, pol), func(t *testing.T) {
					res := Canonical(h, nil, Options{Policy: pol})
					if got := checkedOrder(t, h, res); got.Cmp(big.NewInt(tc.aut)) != 0 {
						t.Errorf("|Aut| = %v, want %d", got, tc.aut)
					}
					if tc.bounded && pol == PolicyBliss && (res.Leaves > maxLeaves || len(res.Generators) > maxGens) {
						t.Errorf("%d leaves and %d generators, want at most %d and %d",
							res.Leaves, len(res.Generators), maxLeaves, maxGens)
					}
				})
			}
		}
	}
}
