package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dvicl/internal/canon"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
)

// TestRelabelingInvariance is an oracle independent of the code under
// test: a canonical certificate may not depend on the input labeling.
// Small CFI graphs over rigid cubic bases are the inputs on which the
// best-path pruning P_B once compared a node's trace with the best leaf's
// after the path had already left the best path above that node, so a
// search kept alive only for automorphisms (P_A) could discard the true
// canonical leaf — and the certificate varied with the labeling.
func TestRelabelingInvariance(t *testing.T) {
	seeds, relabelings := 20, 20
	if testing.Short() {
		seeds, relabelings = 3, 5
	}
	policies := []canon.Policy{canon.PolicyBliss, canon.PolicyNauty, canon.PolicyTraces}
	for _, n := range []int{8, 10} {
		for s := 0; s < seeds; s++ {
			g := gen.CFI(gen.RigidCubic(n, int64(s)), false)
			t.Run(fmt.Sprintf("cfi-rigid%d-s%d", n, s), func(t *testing.T) {
				certs := func(h *graph.Graph) [][]byte {
					out := [][]byte{Build(h, nil, Options{}).CanonicalCert()}
					for _, pol := range policies {
						out = append(out, canon.Canonical(h, nil, canon.Options{Policy: pol}).Cert)
					}
					return out
				}
				want := certs(g)
				r := rand.New(rand.NewSource(int64(1000*n + s)))
				for k := 0; k < relabelings; k++ {
					got := certs(g.Permute(r.Perm(g.N())))
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							name := "Build"
							if i > 0 {
								name = "canon " + policies[i-1].String()
							}
							t.Fatalf("relabeling %d: %s certificate differs from the original labeling's", k, name)
						}
					}
				}
			})
		}
	}
}
