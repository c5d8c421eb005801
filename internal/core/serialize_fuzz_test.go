package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"dvicl/internal/store"
)

// FuzzLoad: corrupt records must produce typed errors, never panics.
// Each input is resealed with a fresh CRC, so mutations reach the body
// decoder instead of stopping at the checksum. Whatever loads must
// survive Verify (which may reject it) and CanonicalOrder on every node.
func FuzzLoad(f *testing.F) {
	g := mixedGraph()
	valid := Build(g, nil, Options{}).Save()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := append([]byte(nil), data...)
		if len(rec) >= 4 {
			body := rec[:len(rec)-4]
			binary.LittleEndian.PutUint32(rec[len(body):], crc32.ChecksumIEEE(body))
		}
		loaded, err := Load(rec, g)
		if err != nil {
			if !typedLoadError(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		_ = loaded.Stats()
		_ = loaded.Verify()
		var walk func(nd *Node)
		walk = func(nd *Node) {
			nd.CanonicalOrder()
			for _, c := range nd.Children {
				walk(c)
			}
		}
		walk(loaded.Root)
	})
}

// typedLoadError reports whether err belongs to the typed corruption set
// shared with internal/store — the contract the treestore's corruption
// fallback matches on.
func typedLoadError(err error) bool {
	var ve *store.VersionError
	return errors.Is(err, store.ErrTruncated) ||
		errors.Is(err, store.ErrChecksum) ||
		errors.Is(err, store.ErrBadMagic) ||
		errors.As(err, &ve)
}

// FuzzTreeSaveLoad drives the full Save→corrupt→Load cycle on random
// trees: an intact record must round-trip the certificate; a truncated
// or bit-flipped record must either be caught with a typed error or
// decode to *some* loadable tree — and must never panic or return an
// ad-hoc untyped failure.
func FuzzTreeSaveLoad(f *testing.F) {
	f.Add(int64(1), uint(40), uint8(0x01))
	f.Add(int64(7), uint(3), uint8(0x80))
	f.Add(int64(42), uint(9999), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, pos uint, mask uint8) {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 2+r.Intn(18), 2)
		tree := Build(g, nil, Options{})
		data := tree.Save()

		loaded, err := Load(data, g)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(loaded.CanonicalCert(), tree.CanonicalCert()) {
			t.Fatal("certificate changed across save/load")
		}

		// Truncation at any offset is a torn file: typed error, never a
		// partial tree and never a panic.
		cut := int(pos % uint(len(data)))
		if _, err := Load(data[:cut], g); err == nil {
			t.Fatalf("truncated record (cut=%d) accepted", cut)
		} else if !typedLoadError(err) {
			t.Fatalf("truncated record (cut=%d): untyped error %v", cut, err)
		}

		// A bit flip may land in a don't-care byte (and still decode) or
		// corrupt structure (typed error) — either way, no panic, no
		// untyped error.
		mut := append([]byte(nil), data...)
		mut[cut] ^= mask | 1
		if _, err := Load(mut, g); err != nil && !typedLoadError(err) {
			t.Fatalf("bit flip at %d: untyped error %v", cut, err)
		}
	})
}
