package treestore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dvicl/internal/core"
	"dvicl/internal/engine"
	"dvicl/internal/gen"
	"dvicl/internal/graph"
	"dvicl/internal/obs"
)

func certOf(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	tree, err := core.BuildCtx(context.Background(), g, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tree.CanonicalCert()
}

func testGraphs() []*graph.Graph {
	return []*graph.Graph{
		gen.CircularLadder(4),
		gen.GridW(2, 4),
		gen.CFI(gen.RigidCubic(8, 7), false),
		gen.MzAug(4),
	}
}

func answerOf(t *testing.T, tree *core.Tree) string {
	t.Helper()
	var b bytes.Buffer
	b.Write(tree.CanonicalCert())
	b.WriteString(tree.AutOrder().String())
	for _, orb := range tree.Orbits() {
		for _, v := range orb {
			b.WriteByte(byte(v))
		}
		b.WriteByte('|')
	}
	return b.String()
}

func TestGetMemoryOnly(t *testing.T) {
	rec := obs.New()
	s, err := Open("", Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cert := certOf(t, gen.GridW(2, 4))

	t1, err := s.Get(context.Background(), cert)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(obs.TreeRebuilds); got != 1 {
		t.Fatalf("cold get: tree_rebuilds = %d, want 1", got)
	}
	t2, err := s.Get(context.Background(), cert)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("warm get returned a different tree instance")
	}
	if got := rec.Counter(obs.TreeRebuilds); got != 1 {
		t.Fatalf("warm get rebuilt: tree_rebuilds = %d", got)
	}
	if got := rec.Counter(obs.TreeStoreMemHits); got != 1 {
		t.Fatalf("treestore_mem_hits = %d, want 1", got)
	}
	if !bytes.Equal(t1.CanonicalCert(), cert) {
		t.Fatal("rebuilt tree's certificate differs from the key")
	}
}

// TestPersistRestartByteIdentical is the durability contract: a second
// store over the same directory (a restarted process) serves the same
// answers from disk, with zero DviCL rebuilds.
func TestPersistRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	answers := make(map[string]string)
	var certs [][]byte

	rec := obs.New()
	s, err := Open(dir, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range testGraphs() {
		cert := certOf(t, g)
		certs = append(certs, cert)
		tree, err := s.Get(context.Background(), cert)
		if err != nil {
			t.Fatal(err)
		}
		answers[string(cert)] = answerOf(t, tree)
	}
	if got := rec.Counter(obs.TreeStorePuts); got != int64(len(certs)) {
		t.Fatalf("treestore_puts = %d, want %d", got, len(certs))
	}
	s.Close()

	rec2 := obs.New()
	s2, err := Open(dir, Options{Obs: rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, cert := range certs {
		tree, err := s2.Get(context.Background(), cert)
		if err != nil {
			t.Fatal(err)
		}
		if answerOf(t, tree) != answers[string(cert)] {
			t.Fatal("answers differ across restart")
		}
	}
	if got := rec2.Counter(obs.TreeRebuilds); got != 0 {
		t.Fatalf("restart served with %d rebuilds, want 0", got)
	}
	if got := rec2.Counter(obs.TreeStoreDiskHits); got != int64(len(certs)) {
		t.Fatalf("treestore_disk_hits = %d, want %d", got, len(certs))
	}
}

func recordPath(t *testing.T, dir string, cert []byte) string {
	t.Helper()
	s := &Store{dir: dir}
	p := s.pathOf(sha256.Sum256(cert))
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("record not on disk: %v", err)
	}
	return p
}

// TestCorruptRecordFallsBackToRebuild: every flavor of on-disk damage —
// bit flip, truncation, bad magic, version skew — must degrade to one
// recompute and a rewritten record, never a query error. A record from
// a build before format version 2 ("v1") takes the same path once.
func TestCorruptRecordFallsBackToRebuild(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"bitflip":  func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d },
		"truncate": func(d []byte) []byte { return d[:len(d)/2] },
		"magic":    func(d []byte) []byte { copy(d[:4], "XXXX"); return d },
		"version":  func(d []byte) []byte { d[4] = 99; return d },
		"v1":       func(d []byte) []byte { d[4] = 1; return d },
		"empty":    func(d []byte) []byte { return nil },
		// An older build's record of a tree whose leaf searches were cut
		// short: a 1 after the colors (one byte each here), CRC resealed.
		"truncated flag": func(d []byte) []byte {
			d[4+2+sha256.Size+gen.GridW(2, 4).N()] = 1
			body := d[:len(d)-4]
			binary.LittleEndian.PutUint32(d[len(body):], crc32.ChecksumIEEE(body))
			return d
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cert := certOf(t, gen.GridW(2, 4))
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.Get(context.Background(), cert)
			if err != nil {
				t.Fatal(err)
			}
			wantAns := answerOf(t, want)
			s.Close()

			path := recordPath(t, dir, cert)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			rec := obs.New()
			s2, err := Open(dir, Options{Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			got, err := s2.Get(context.Background(), cert)
			if err != nil {
				t.Fatalf("corrupt record surfaced as error: %v", err)
			}
			if answerOf(t, got) != wantAns {
				t.Fatal("recomputed answer differs from original")
			}
			if c := rec.Counter(obs.TreeStoreCorrupt); c != 1 {
				t.Fatalf("treestore_corrupt = %d, want 1", c)
			}
			if c := rec.Counter(obs.TreeRebuilds); c != 1 {
				t.Fatalf("tree_rebuilds = %d, want 1", c)
			}
			// The rebuild must heal the record: a third store serves it
			// from disk again.
			rec3 := obs.New()
			s3, err := Open(dir, Options{Obs: rec3})
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if _, err := s3.Get(context.Background(), cert); err != nil {
				t.Fatal(err)
			}
			if c := rec3.Counter(obs.TreeStoreDiskHits); c != 1 {
				t.Fatalf("healed record not served from disk (disk_hits=%d)", c)
			}
		})
	}
}

// TestRecordUnderAnotherKeyIsRebuilt: C6 and two triangles have the same
// vertex and edge counts. C6's record copied over the triangles' path
// must not answer for them: it is counted corrupt, removed and rebuilt.
func TestRecordUnderAnotherKeyIsRebuilt(t *testing.T) {
	c6 := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	twoK3 := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	c6Cert, twoK3Cert := certOf(t, c6), certOf(t, twoK3)
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cert := range [][]byte{c6Cert, twoK3Cert} {
		if _, err := s.Get(context.Background(), cert); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(recordPath(t, dir, c6Cert))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recordPath(t, dir, twoK3Cert), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	s2, err := Open(dir, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tree, err := s2.Get(context.Background(), twoK3Cert)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.AutOrder().Int64(); got != 72 {
		t.Fatalf("|Aut(2K3)| = %d, want 72", got)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if c := rec.Counter(obs.TreeStoreCorrupt); c != 1 {
		t.Fatalf("treestore_corrupt = %d, want 1", c)
	}
	if c := rec.Counter(obs.TreeRebuilds); c != 1 {
		t.Fatalf("tree_rebuilds = %d, want 1", c)
	}
}

// TestSingleFlight: a thundering herd on one cold certificate performs
// exactly one rebuild, and the herd's first AutOrder calls on the shared
// tree agree.
func TestSingleFlight(t *testing.T) {
	rec := obs.New()
	s, err := Open("", Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cert := certOf(t, gen.CFI(gen.RigidCubic(10, 11), false))

	const goroutines = 16
	trees := make([]*core.Tree, goroutines)
	orders := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := s.Get(context.Background(), cert)
			if err != nil {
				t.Error(err)
				return
			}
			trees[i] = tr
			orders[i] = tr.AutOrder().String()
		}(i)
	}
	wg.Wait()
	if got := rec.Counter(obs.TreeRebuilds); got != 1 {
		t.Fatalf("tree_rebuilds = %d, want 1 (single-flight)", got)
	}
	for i, tr := range trees[1:] {
		if tr != trees[0] {
			t.Fatal("waiters got different tree instances")
		}
		if orders[i+1] != orders[0] {
			t.Fatalf("AutOrder = %s and %s on one tree", orders[i+1], orders[0])
		}
	}
}

// hookCtx runs hook the first time Done is called: for a flight leader
// that is when its build starts watching the context, for a waiter when
// it starts waiting on the flight.
type hookCtx struct {
	context.Context
	once sync.Once
	hook func()
}

func (c *hookCtx) Done() <-chan struct{} {
	c.once.Do(c.hook)
	return c.Context.Done()
}

// TestCanceledLeaderHandsOverFlight: when the caller leading a rebuild
// cancels, a waiter whose own context is live must still get the tree,
// by rebuilding it itself, not the leader's ErrCanceled. The hooks order
// the steps: the leader's build blocks until the waiter is waiting on
// the flight, and the waiter's arrival cancels the leader.
func TestCanceledLeaderHandsOverFlight(t *testing.T) {
	rec := obs.New()
	s, err := Open("", Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cert := certOf(t, gen.CFI(gen.RigidCubic(8, 7), false))

	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderBuilding, waiterWaiting := make(chan struct{}), make(chan struct{})
	leaderCtx := &hookCtx{Context: inner, hook: func() {
		close(leaderBuilding)
		<-waiterWaiting
	}}
	waiterCtx := &hookCtx{Context: context.Background(), hook: func() {
		cancel()
		close(waiterWaiting)
	}}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Get(leaderCtx, cert)
		leaderErr <- err
	}()
	<-leaderBuilding
	tree, err := s.Get(waiterCtx, cert)
	if err != nil {
		t.Fatalf("waiter with a live context: %v", err)
	}
	if tree == nil || !bytes.Equal(tree.CanonicalCert(), cert) {
		t.Fatal("waiter got the wrong tree")
	}
	if err := <-leaderErr; !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("canceled leader: %v, want ErrCanceled", err)
	}
	if got := rec.Counter(obs.TreeRebuilds); got != 2 {
		t.Fatalf("tree_rebuilds = %d, want 2 (canceled leader, then the waiter)", got)
	}
	if again, err := s.Get(context.Background(), cert); err != nil || again != tree {
		t.Fatalf("the waiter's rebuild was not cached: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	rec := obs.New()
	s, err := Open("", Options{MemBudget: 1, Obs: rec}) // 1 byte: at most one resident tree
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, g := range testGraphs() {
		if _, err := s.Get(context.Background(), certOf(t, g)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (newest survives)", st.Entries)
	}
	if got := rec.Counter(obs.TreeStoreEvictions); got != int64(len(testGraphs())-1) {
		t.Fatalf("treestore_evictions = %d, want %d", got, len(testGraphs())-1)
	}
}

func TestGetHonorsCancellation(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.Get(ctx, certOf(t, gen.CFI(gen.RigidCubic(20, 13), false)))
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("canceled get: %v, want ErrCanceled", err)
	}
}

func TestGetRejectsBadCertificate(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Get(context.Background(), []byte("not a certificate")); err == nil {
		t.Fatal("garbage certificate accepted")
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Get(context.Background(), certOf(t, gen.GridW(2, 3))); !errors.Is(err, ErrClosed) {
		t.Fatalf("get on closed store: %v, want ErrClosed", err)
	}
}

// TestStrayTempFilesIgnored: a crash mid-persist leaves a .tmp file;
// it must not confuse loads, and the real record still round-trips.
func TestStrayTempFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	cert := certOf(t, gen.GridW(2, 4))
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), cert); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := recordPath(t, dir, cert)
	if err := os.WriteFile(path+".tmp123", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	s2, err := Open(dir, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get(context.Background(), cert); err != nil {
		t.Fatal(err)
	}
	if c := rec.Counter(obs.TreeStoreDiskHits); c != 1 {
		t.Fatalf("disk_hits = %d, want 1", c)
	}
}

func TestStatsAndLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cert := certOf(t, gen.GridW(2, 3))
	if _, err := s.Get(context.Background(), cert); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes <= 0 || !st.Persistent || st.MemBudget != DefaultMemBudget {
		t.Fatalf("stats: %+v", st)
	}
	// Records fan out into 2-hex-digit subdirectories.
	p := recordPath(t, dir, cert)
	rel, err := filepath.Rel(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(filepath.Dir(rel)) != 2 {
		t.Fatalf("record path %s not fanned out", rel)
	}
}
