package main

import (
	"fmt"
	"math/big"
	"reflect"

	"dvicl"
)

// symRef is the reference answer to symmetry queries about one class,
// computed in-process through the dvicl facade before anything is timed.
type symRef struct {
	orbits [][]int
	order  string
	ssm    []string // SSM image count per pattern
}

// refOf computes g's reference answers on its canonical graph, the
// space the index answers class-level queries in: orbits, |Aut|, and the
// number of SSM images of each pattern.
func refOf(g *dvicl.Graph, patterns [][]int) symRef {
	tree := dvicl.BuildAutoTree(dvicl.CanonicalGraph(g), nil, dvicl.Options{})
	ssm := dvicl.NewSSMIndex(tree)
	r := symRef{orbits: tree.Orbits(), order: tree.AutOrder().String()}
	for _, p := range patterns {
		r.ssm = append(r.ssm, ssm.CountImages(p).String())
	}
	return r
}

// symAnswer is an answer to an orbits, automorphism-group or SSM query,
// whichever way it arrived (JSON over HTTP or an in-process call).
type symAnswer struct {
	orbits [][]int
	order  *big.Int
	count  *big.Int
	images int // SSM images enumerated
}

// checkSym returns "" when a is the right answer to a query of kind
// (reqOrbits, reqAutGroup or reqSSM with pattern) about the class of
// ref, else why not.
func checkSym(kind uint8, pattern int, a *symAnswer, ref *symRef) string {
	switch kind {
	case reqOrbits:
		if !reflect.DeepEqual(a.orbits, ref.orbits) {
			return "orbits differ from the in-process reference"
		}
	case reqAutGroup:
		if a.order.String() != ref.order {
			return fmt.Sprintf("|Aut| %s, want %s", a.order, ref.order)
		}
	case reqSSM:
		want := ref.ssm[pattern]
		if a.count.String() != want {
			return fmt.Sprintf("SSM count %s, want %s", a.count, want)
		}
		return checkImages(a.count, a.images)
	}
	return ""
}

// checkImages checks the number of images an SSM query with limit
// ssmLimit enumerated against the orbit size count. The enumeration may
// overshoot the limit (a leaf's orbit search tests the limit once per
// breadth-first step, not once per image), so the check is that it
// returns at least min(count, limit) images and no more than count.
func checkImages(count *big.Int, images int) string {
	lo := int64(ssmLimit)
	if count.IsInt64() && count.Int64() < lo {
		lo = count.Int64()
	}
	if int64(images) < lo || count.Cmp(big.NewInt(int64(images))) < 0 {
		return fmt.Sprintf("%d images for an orbit of %s, limit %d", images, count, ssmLimit)
	}
	return ""
}
