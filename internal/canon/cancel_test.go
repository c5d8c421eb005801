package canon

import (
	"context"
	"errors"
	"testing"

	"dvicl/internal/engine"
	"dvicl/internal/obs"
)

// TestCanonicalCtlCanceled: a canceled controller stops the backtrack
// search at a checkpoint and CanonicalCtl returns ErrCanceled with no
// canonical result. A cancellation is not a truncation.
func TestCanonicalCtlCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := engine.NewCtl(ctx, engine.Budget{})
	rec := obs.New()
	res, err := CanonicalCtl(ctl, nil, cycle(12), nil, Options{Obs: rec})
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res.Canon != nil || res.Cert != nil {
		t.Fatal("canceled search returned a canonical form")
	}
	if got := rec.Counter(obs.Truncations); got != 0 {
		t.Fatalf("truncations = %d, want 0", got)
	}
}

// TestCanonicalCtlBudgetExceeded: the whole-build node cap surfaces as
// a typed error with no canonical result, and counts one truncation.
func TestCanonicalCtlBudgetExceeded(t *testing.T) {
	ctl := engine.NewCtl(context.Background(), engine.Budget{MaxNodes: 2})
	rec := obs.New()
	res, err := CanonicalCtl(ctl, nil, cycle(32), nil, Options{Obs: rec})
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res.Canon != nil || res.Cert != nil {
		t.Fatal("stopped search returned a canonical form")
	}
	if got := rec.Counter(obs.Truncations); got != 1 {
		t.Fatalf("truncations = %d, want 1", got)
	}
}

// TestCanonicalCtlNilMatchesLegacy: a nil controller and workspace make
// CanonicalCtl the exact legacy search — same certificate bytes.
func TestCanonicalCtlNilMatchesLegacy(t *testing.T) {
	for _, g := range []struct {
		name string
		mk   func() Result
	}{
		{"cycle", func() Result { return Canonical(cycle(16), nil, Options{}) }},
		{"complete", func() Result { return Canonical(complete(7), nil, Options{}) }},
	} {
		want := g.mk()
		// Re-run through the Ctl path with an explicit pooled workspace.
		ws := engine.GetWorkspace(64)
		var got Result
		var err error
		switch g.name {
		case "cycle":
			got, err = CanonicalCtl(nil, ws, cycle(16), nil, Options{})
		default:
			got, err = CanonicalCtl(nil, ws, complete(7), nil, Options{})
		}
		engine.PutWorkspace(ws)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if string(got.Cert) != string(want.Cert) {
			t.Fatalf("%s: CanonicalCtl certificate differs from Canonical", g.name)
		}
	}
}
