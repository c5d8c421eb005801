package main

import (
	"fmt"
	"net/http"
	"strconv"
)

// Symmetry-query endpoints: answer orbit / automorphism-group / quotient
// / SSM questions about a stored graph by id, served from the index's
// persistent AutoTree store (warm path: zero DviCL builds). Answers are
// class-level, phrased over the canonical graph of the id's isomorphism
// class — every isomorphic graph in the index answers identically.

type sparsePermResp struct {
	N     int      `json:"n"`
	Moved [][2]int `json:"moved"`
}

type orbitsResp struct {
	ID     int     `json:"id"`
	N      int     `json:"n"`
	Orbits [][]int `json:"orbits"`
}

type autgroupResp struct {
	ID int `json:"id"`
	N  int `json:"n"`
	// Order is |Aut(G)| as a decimal string — it routinely exceeds uint64
	// (e.g. star graphs have (n−1)! automorphisms).
	Order      string           `json:"order"`
	Generators []sparsePermResp `json:"generators"`
}

type quotientResp struct {
	ID        int      `json:"id"`
	N         int      `json:"n"`
	QuotientN int      `json:"quotient_n"`
	Edges     [][2]int `json:"edges"`
	OrbitOf   []int    `json:"orbit_of"`
}

type ssmReq struct {
	ID      int   `json:"id"`
	Pattern []int `json:"pattern"`
	Limit   int   `json:"limit"`
}

type ssmResp struct {
	ID      int     `json:"id"`
	Pattern []int   `json:"pattern"`
	Count   string  `json:"count"`
	Images  [][]int `json:"images,omitempty"`
}

// queryID parses the required ?id= parameter.
func queryID(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("id")
	if raw == "" {
		return 0, badRequest("missing id parameter")
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("bad id %q", raw)
	}
	return id, nil
}

func (s *server) handleOrbits(w http.ResponseWriter, r *http.Request) error {
	id, err := queryID(r)
	if err != nil {
		return err
	}
	orbits, err := s.ix.OrbitsCtx(r.Context(), id)
	if err != nil {
		return err
	}
	n := 0
	for _, o := range orbits {
		n += len(o)
	}
	writeJSON(w, http.StatusOK, orbitsResp{ID: id, N: n, Orbits: orbits})
	return nil
}

func (s *server) handleAutGroup(w http.ResponseWriter, r *http.Request) error {
	id, err := queryID(r)
	if err != nil {
		return err
	}
	order, gens, err := s.ix.AutGroupCtx(r.Context(), id)
	if err != nil {
		return err
	}
	resp := autgroupResp{ID: id, Order: order.String(), Generators: make([]sparsePermResp, len(gens))}
	for i, g := range gens {
		resp.N = g.N
		moved := g.Moved
		if moved == nil {
			moved = [][2]int{}
		}
		resp.Generators[i] = sparsePermResp{N: g.N, Moved: moved}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *server) handleQuotient(w http.ResponseWriter, r *http.Request) error {
	id, err := queryID(r)
	if err != nil {
		return err
	}
	q, err := s.ix.QuotientCtx(r.Context(), id)
	if err != nil {
		return err
	}
	edges := q.Graph.Edges()
	if edges == nil {
		edges = [][2]int{}
	}
	writeJSON(w, http.StatusOK, quotientResp{
		ID:        id,
		N:         len(q.OrbitOf),
		QuotientN: q.Graph.N(),
		Edges:     edges,
		OrbitOf:   q.OrbitOf,
	})
	return nil
}

func (s *server) handleSSM(w http.ResponseWriter, r *http.Request) error {
	var req ssmReq
	if err := s.decodeBody(w, r, &req); err != nil {
		return err
	}
	if req.Limit < 0 || req.Limit > maxSSMImages {
		return badRequest("limit %d out of range [0,%d]", req.Limit, maxSSMImages)
	}
	count, images, err := s.ix.SSMCtx(r.Context(), req.ID, req.Pattern, req.Limit)
	if err != nil {
		return err
	}
	if req.Pattern == nil {
		req.Pattern = []int{}
	}
	writeJSON(w, http.StatusOK, ssmResp{
		ID:      req.ID,
		Pattern: req.Pattern,
		Count:   count.String(),
		Images:  images,
	})
	return nil
}

// handleReadyz is the readiness probe: 200 when the index can serve and
// persist (open, data directory writable), 503 otherwise. Distinct from
// /healthz, which only answers "the process is up" — a daemon whose disk
// filled is alive but not ready.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	if err := s.ix.Ready(); err != nil {
		return &failure{status: http.StatusServiceUnavailable, msg: err.Error(), outcome: "error"}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
	return nil
}
