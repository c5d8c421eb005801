package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"dvicl"
	"dvicl/internal/gen"
)

// Every input is made here from the -seed value and the workload's
// config, before anything is timed. The program under test only ever
// sees the graph6 records and request bodies built from these.
//
// The seed picks the graphs, their labelings, the patterns and the order
// of operations. The shape of the work does not depend on it: graph
// sizes sit at fixed quantiles of each workload's size distribution, and
// which size is how popular is fixed too (layoutSeed). A draw of a few
// 3,000-vertex graphs more or less would otherwise move a run's
// throughput with the seed by more than any regression bound.

// layoutSeed fixes which sizes the popular classes of serve-mixed and
// symq-cold have, on every seed.
const layoutSeed = 1

// encodeGraph6 writes g relabeled by p (vertex v becomes p[v]; nil means
// the identity) in graph6. It touches each edge once, where
// graph.ToGraph6 probes all n² vertex pairs, which would dominate input
// generation for the 3,000-vertex social records.
func encodeGraph6(g *dvicl.Graph, p []int) string {
	n := g.N()
	hdr := 1
	if n > 62 {
		hdr = 4
	}
	bitsLen := n * (n - 1) / 2
	buf := make([]byte, hdr+(bitsLen+5)/6)
	if n <= 62 {
		buf[0] = byte(n)
	} else {
		buf[0] = 126 - 63
		buf[1], buf[2], buf[3] = byte(n>>12&63), byte(n>>6&63), byte(n&63)
	}
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors32(u) {
			v := int(w)
			if v <= u {
				continue
			}
			i, j := u, v
			if p != nil {
				i, j = p[u], p[v]
			}
			if i > j {
				i, j = j, i
			}
			bit := j*(j-1)/2 + i
			buf[hdr+bit/6] |= 1 << (5 - bit%6)
		}
	}
	for k := range buf {
		buf[k] += 63
	}
	return string(buf)
}

// sizeDist is a heavy-tailed (Pareto) vertex-count distribution from lo,
// with exponent alpha, capped at hi: most graphs are near lo, a few
// reach hi.
type sizeDist struct {
	lo, hi int
	alpha  float64
}

// at returns the vertex count at quantile u.
func (d sizeDist) at(u float64) int {
	n := int(float64(d.lo) / math.Pow(1-u, 1/d.alpha))
	return min(max(n, d.lo), d.hi)
}

// spread returns count sizes at evenly spaced quantiles, ascending.
func (d sizeDist) spread(count int) []int {
	ns := make([]int, count)
	for i := range ns {
		ns[i] = d.at((float64(i) + 0.5) / float64(count))
	}
	return ns
}

// nth returns the i-th of an endless sequence of sizes whose quantiles
// (the golden-ratio sequence) fill [0, 1) evenly at every length.
func (d sizeDist) nth(i int) int {
	_, u := math.Modf(0.5 + float64(i)*0.6180339887498949)
	return d.at(u)
}

// stratified returns k of the indices 0..n-1, evenly spaced.
func stratified(n, k int) []int {
	out := make([]int, k)
	for j := range out {
		out[j] = (2*j + 1) * n / (2 * k)
	}
	return out
}

// socialGraph is one social-network stand-in (the paper's Table 1 shape:
// a quasi-rigid preferential-attachment core plus twins and pendants).
func socialGraph(r *rand.Rand, n int) *dvicl.Graph {
	return gen.Social(gen.SocialConfig{
		Name: "dvbench", N: n, M: n * 7 / 2,
		TwinFrac: 0.12, PendantFrac: 0.18,
		Seed: r.Int63(),
	})
}

// socialStream lays out a stream of records over classes of the given
// sizes: every class once, plus dups further records spread evenly over
// the classes in size order, in a seeded order. It returns the class of
// each record; a class's first record is its new member, later ones are
// relabeled duplicates.
func socialStream(r *rand.Rand, classes, dups int) []int {
	occ := make([]int, 0, classes+dups)
	for c := 0; c < classes; c++ {
		occ = append(occ, c)
	}
	occ = append(occ, stratified(classes, dups)...)
	r.Shuffle(len(occ), func(i, j int) { occ[i], occ[j] = occ[j], occ[i] })
	return occ
}

// ---- hard-canon ----

// hcBase is one hard-canon base graph.
type hcBase struct {
	name string
	g    *dvicl.Graph
}

type hcOp struct {
	base int
	g6   string
}

type hardCanonInput struct {
	bases []hcBase
	pass  []hcOp
}

func genHardCanon(cfg hardCanonConfig, seed int64) (*hardCanonInput, error) {
	in := &hardCanonInput{}
	r := rand.New(rand.NewSource(seed))
	for bi, b := range cfg.bases {
		g, err := b.make()
		if err != nil {
			return nil, fmt.Errorf("hard-canon: base %s: %w", b.name, err)
		}
		in.bases = append(in.bases, hcBase{name: b.name, g: g})
		var fixed string
		if b.panel {
			fixed = encodeGraph6(g, rand.New(rand.NewSource(cfg.panelSeed)).Perm(g.N()))
		}
		for k := 0; k < b.perPass; k++ {
			op := hcOp{base: bi, g6: fixed}
			if !b.panel {
				op.g6 = encodeGraph6(g, r.Perm(g.N()))
			}
			in.pass = append(in.pass, op)
		}
	}
	r.Shuffle(len(in.pass), func(i, j int) { in.pass[i], in.pass[j] = in.pass[j], in.pass[i] })
	return in, nil
}

// ---- social-ingest ----

type ingestInput struct {
	records []string
	dup     []bool // expected duplicate flag of each record
	classes int
	// warm is the set-up batch: the new records of warmRecords classes
	// spread over the sizes, so set-up is the same work on every seed.
	warm []string
}

func genIngest(cfg ingestConfig, seed int64) *ingestInput {
	r := rand.New(rand.NewSource(seed))
	classes := int(math.Round(float64(cfg.records) * (1 - cfg.dupShare)))
	sizes := sizeDist{cfg.minN, cfg.maxN, cfg.alpha}.spread(classes)
	graphs := make([]*dvicl.Graph, classes)
	first := make([]string, classes) // each class's new record
	in := &ingestInput{classes: classes}
	for _, c := range socialStream(r, classes, cfg.records-classes) {
		if g := graphs[c]; g != nil {
			in.records = append(in.records, encodeGraph6(g, r.Perm(g.N())))
			in.dup = append(in.dup, true)
			continue
		}
		graphs[c] = socialGraph(r, sizes[c])
		first[c] = encodeGraph6(graphs[c], nil)
		in.records = append(in.records, first[c])
		in.dup = append(in.dup, false)
	}
	for _, c := range stratified(classes, min(cfg.warmRecords, classes)) {
		in.warm = append(in.warm, first[c])
	}
	return in
}

// ---- serve-mixed ----

// Request kinds of the serve-mixed mix.
const (
	reqAdd uint8 = iota
	reqLookup
	reqOrbits
	reqAutGroup
	reqSSM
	numReqKinds
)

var reqKindNames = [numReqKinds]string{"add", "lookup", "orbits", "autgroup", "ssm"}

// request is one pre-encoded HTTP request and the answer it must get.
type request struct {
	kind uint8
	path string // includes the query string for GETs
	body []byte // nil for GETs
	// add: wantDup; lookup: wantIDs (sorted); symmetry queries: target
	// (index into serveInput.targets) and, for SSM, pattern.
	wantDup bool
	wantIDs []int
	target  int
	pattern int
}

// serveTarget is a preloaded class that symmetry queries ask about.
type serveTarget struct {
	id       int // id of its first preloaded member
	g        *dvicl.Graph
	patterns [][]int // canonical-vertex patterns for /ssm
}

type serveInput struct {
	preload []byte // graph6 lines for /bulk
	graphs  int    // preloaded graphs
	classes int    // preloaded classes
	targets []serveTarget
	reqs    []request
	due     []time.Duration // open-loop due times of reqs[:len(due)]
}

// genServe makes the preload, the query targets and the request schedule
// for a run of the given length: an open-loop part of about
// rate × openShare × seconds requests with Poisson due times, then
// enough requests for the saturation phase at satRate.
func genServe(cfg serveConfig, seed int64, seconds float64) *serveInput {
	openN := int(math.Round(cfg.rate * cfg.openShare * seconds))
	satN := int(math.Round(cfg.satRate * (1 - cfg.openShare) * seconds))
	r := rand.New(rand.NewSource(seed))
	dist := sizeDist{cfg.minN, cfg.maxN, cfg.alpha}

	nClasses := int(math.Round(float64(cfg.preload) * (1 - cfg.preloadDupShare)))
	sizes := dist.spread(nClasses)
	type class struct {
		g       *dvicl.Graph
		members []int    // preloaded ids
		exact   []string // graph6 of preloaded members
	}
	classes := make([]*class, nClasses)
	in := &serveInput{graphs: cfg.preload, classes: nClasses}
	for id, c := range socialStream(r, nClasses, cfg.preload-nClasses) {
		var s string
		if cl := classes[c]; cl != nil {
			s = encodeGraph6(cl.g, r.Perm(cl.g.N()))
		} else {
			classes[c] = &class{g: socialGraph(r, sizes[c])}
			s = encodeGraph6(classes[c].g, nil)
		}
		classes[c].members = append(classes[c].members, id)
		classes[c].exact = append(classes[c].exact, s)
		in.preload = append(append(in.preload, s...), '\n')
	}

	// Lookups ask about classes that adds never touch, so their expected
	// id lists do not depend on how the two connections interleave. Both
	// sets, and the query targets, are spread over the sizes.
	lookupSet := stratified(nClasses, cfg.lookupClasses)
	inLookup := make(map[int]bool, len(lookupSet))
	for _, c := range lookupSet {
		inLookup[c] = true
	}
	var addSet []int
	for c := range classes {
		if !inLookup[c] {
			addSet = append(addSet, c)
		}
	}
	targets := stratified(nClasses, cfg.queryClasses)
	byRank := rand.New(rand.NewSource(layoutSeed)).Perm(len(targets))
	for _, k := range byRank {
		c := classes[targets[k]]
		t := serveTarget{id: c.members[0], g: c.g}
		for p := 0; p < cfg.patternsPerTarget; p++ {
			t.patterns = append(t.patterns, r.Perm(c.g.N())[:2+r.Intn(2)])
		}
		in.targets = append(in.targets, t)
	}
	zipf := rand.NewZipf(r, cfg.zipfS, 1, uint64(len(in.targets)-1))
	// A relabeled graph costs indexd a certificate build, so which classes
	// are asked about sets the latency tail. Each kind of pick cycles
	// through its set, and every seed asks about the same mix of sizes.
	addRelabeled, addExact := newCycler(r, addSet), newCycler(r, addSet)
	lookupRelabeled, lookupExact := newCycler(r, lookupSet), newCycler(r, lookupSet)

	graphBody := func(s string) []byte { return []byte(`{"graph6":` + strconv.Quote(s) + `}`) }
	total := 0
	for _, w := range cfg.mix {
		total += w
	}
	pick := func() uint8 {
		x := r.Intn(total)
		for k, w := range cfg.mix {
			if x < w {
				return uint8(k)
			}
			x -= w
		}
		return numReqKinds - 1
	}
	fresh := 0
	var t time.Duration
	for i := 0; i < openN+satN; i++ {
		req := request{kind: pick()}
		switch req.kind {
		case reqAdd:
			req.path = "/add"
			switch x := r.Intn(10); {
			case x == 0: // a graph no one has sent: a new class
				req.body = graphBody(encodeGraph6(socialGraph(r, dist.nth(fresh)), nil))
				fresh++
			case x <= 4: // a relabeled member of a stored class
				c := classes[addRelabeled.next()]
				req.body = graphBody(encodeGraph6(c.g, r.Perm(c.g.N())))
				req.wantDup = true
			default: // a byte-exact repeat of a stored graph
				c := classes[addExact.next()]
				req.body = graphBody(c.exact[r.Intn(len(c.exact))])
				req.wantDup = true
			}
		case reqLookup:
			req.path = "/lookup"
			if r.Intn(2) == 0 {
				c := classes[lookupExact.next()]
				req.body = graphBody(c.exact[r.Intn(len(c.exact))])
				req.wantIDs = c.members
			} else {
				c := classes[lookupRelabeled.next()]
				req.body = graphBody(encodeGraph6(c.g, r.Perm(c.g.N())))
				req.wantIDs = c.members
			}
		case reqOrbits, reqAutGroup:
			req.target = int(zipf.Uint64())
			name := "/orbits"
			if req.kind == reqAutGroup {
				name = "/autgroup"
			}
			req.path = name + "?id=" + strconv.Itoa(in.targets[req.target].id)
		case reqSSM:
			req.target = int(zipf.Uint64())
			tg := in.targets[req.target]
			req.pattern = r.Intn(len(tg.patterns))
			req.path = "/ssm"
			req.body = []byte(fmt.Sprintf(`{"id":%d,"pattern":%s,"limit":%d}`,
				tg.id, intsJSON(tg.patterns[req.pattern]), ssmLimit))
		}
		in.reqs = append(in.reqs, req)
		if i < openN {
			t += time.Duration(r.ExpFloat64() / cfg.rate * float64(time.Second))
			in.due = append(in.due, t)
		}
	}
	return in
}

// cycler hands out the members of a set in seeded random order, each
// once per round.
type cycler struct {
	r     *rand.Rand
	set   []int
	order []int
}

func newCycler(r *rand.Rand, set []int) *cycler { return &cycler{r: r, set: set} }

func (c *cycler) next() int {
	if len(c.order) == 0 {
		c.order = c.r.Perm(len(c.set))
	}
	v := c.set[c.order[0]]
	c.order = c.order[1:]
	return v
}

// ssmLimit is how many images each SSM query enumerates.
const ssmLimit = 4

func intsJSON(xs []int) string {
	b := []byte{'['}
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(append(b, ']'))
}

// ---- symq-cold ----

// symqKinds gives the kinds of a cycle's queries in turn: half orbits,
// a quarter each automorphism group and SSM.
var symqKinds = [4]uint8{reqOrbits, reqAutGroup, reqOrbits, reqSSM}

type symQuery struct {
	kind    uint8 // reqOrbits, reqAutGroup or reqSSM
	class   int   // = its graph id: every stored graph is its own class
	pattern int
}

type symqInput struct {
	graphs   []*dvicl.Graph
	patterns [][][]int    // per class, canonical-vertex patterns
	cycles   [][]symQuery // one query sequence per restart in a pass
}

// zipfQuota splits total queries (at least n) over n popularity ranks:
// one each, so a cycle's working set is the whole store, and the rest in
// proportion to (rank+1)^-s, rounding so the counts sum to total.
func zipfQuota(total, n int, s float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	q := make([]int, n)
	left := total - n
	extra := left
	for k := range q {
		q[k] = int(float64(extra) * w[k] / sum)
		left -= q[k]
	}
	for k := range q {
		q[k]++
	}
	for k := 0; left > 0; k, left = k+1, left-1 {
		q[k]++
	}
	return q
}

func genSymq(cfg symqConfig, seed int64) (*symqInput, error) {
	r := rand.New(rand.NewSource(seed))
	var graphs []*dvicl.Graph
	for _, n := range (sizeDist{cfg.minN, cfg.maxN, cfg.alpha}).spread(cfg.socialClasses) {
		graphs = append(graphs, socialGraph(r, n))
	}
	for _, b := range cfg.hard {
		g, err := b.make()
		if err != nil {
			return nil, fmt.Errorf("symq-cold: %s: %w", b.name, err)
		}
		graphs = append(graphs, g)
	}
	// Popularity rank k goes to graph byRank[k] (the same graph size on
	// every seed); each graph is stored, relabeled, at a seeded id.
	byRank := rand.New(rand.NewSource(layoutSeed)).Perm(len(graphs))
	id := r.Perm(len(graphs))
	in := &symqInput{graphs: make([]*dvicl.Graph, len(graphs)), patterns: make([][][]int, len(graphs))}
	for i, g := range graphs {
		in.graphs[id[i]] = g.Permute(r.Perm(g.N()))
		var ps [][]int
		for k := 0; k < cfg.patternsPerClass; k++ {
			ps = append(ps, r.Perm(g.N())[:2+r.Intn(2)])
		}
		in.patterns[id[i]] = ps
	}
	quota := zipfQuota(cfg.queriesPerCycle, len(graphs), cfg.zipfS)
	for c := 0; c < cfg.cyclesPerPass; c++ {
		var qs []symQuery
		for rank, n := range quota {
			cl := id[byRank[rank]]
			for j := 0; j < n; j++ {
				i := len(qs)
				qs = append(qs, symQuery{kind: symqKinds[i%4], class: cl, pattern: i / 4 % cfg.patternsPerClass})
			}
		}
		r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		in.cycles = append(in.cycles, qs)
	}
	return in, nil
}
