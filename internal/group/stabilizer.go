package group

import (
	"math/rand"
	"slices"

	"dvicl/internal/perm"
)

// Stabilizer returns the pointwise stabilizer of the given points: the
// subgroup of elements fixing every point. It rebuilds the chain with the
// points as the leading base, after which the strong generators fixing
// all of them generate the stabilizer (the defining property of a
// stabilizer chain).
func (g *Group) Stabilizer(points []int) *Group {
	h := NewWithBase(g.n, g.gens, points)
	var stab []perm.Perm
	for _, p := range h.gens {
		fixesAll := true
		for _, pt := range points {
			if p[pt] != pt {
				fixesAll = false
				break
			}
		}
		if fixesAll {
			stab = append(stab, p)
		}
	}
	return New(g.n, stab)
}

// OrbitOf returns the orbit of a point under the group, sorted.
func (g *Group) OrbitOf(point int) []int {
	seen := map[int]bool{point: true}
	queue := []int{point}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, gen := range g.gens {
			if y := gen[x]; !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// RandomElement samples a uniformly random group element by composing a
// random coset representative from each chain level, deepest level first
// (the unique factorization g = u_k ∘ … ∘ u_1 along the stabilizer
// chain, in application order).
func (g *Group) RandomElement(r *rand.Rand) perm.Perm {
	p := perm.Identity(g.n)
	for i := len(g.chain) - 1; i >= 0; i-- {
		l := g.chain[i]
		pt := l.orbit[r.Intn(len(l.orbit))]
		p = p.Compose(l.transversal(g.n, pt))
	}
	return p
}
