package dvicl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dvicl/internal/store"
)

// TestOpenRefusesOtherCertScheme: certificates key a durable index, so
// an index written under another certificate scheme must refuse to open
// with a typed error. Opened anyway, each old class's next graph would be
// filed as a new class beside it. The index written before schemes
// existed is reproduced byte for byte: a zero scheme field in the WAL
// headers and a manifest without "cert_scheme". Before the downgrade,
// every index round-trips. (A snapshot an older build left under scheme
// 0 is refused at the store level.)
func TestOpenRefusesOtherCertScheme(t *testing.T) {
	graphs := indexTestGraphs()
	for _, tc := range []struct {
		name   string
		shards int
		closed bool // closed and reopened before the downgrade; unclosed is left as a crash leaves it
	}{
		{"single-shard", 1, true},
		{"single-shard-wal-only", 1, false},
		{"sharded", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ix, err := OpenGraphIndex(dir, IndexOptions{Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range graphs {
				mustAdd(t, ix, g)
			}
			if tc.closed {
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				reopened, err := OpenGraphIndex(dir, IndexOptions{Shards: tc.shards})
				if err != nil {
					t.Fatalf("fresh index does not reopen: %v", err)
				}
				if reopened.Len() != len(graphs) || reopened.Classes() != 4 {
					t.Fatalf("fresh index reopened with len=%d classes=%d", reopened.Len(), reopened.Classes())
				}
				if err := reopened.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				t.Cleanup(func() { ix.Close() })
			}

			downgradeToSchemeZero(t, dir, tc.shards)
			_, err = OpenGraphIndex(dir, IndexOptions{Shards: tc.shards})
			var se *SchemeError
			if !errors.As(err, &se) {
				t.Fatalf("open of a scheme-0 index: err = %v, want *SchemeError", err)
			}
			if se.Got != 0 || se.Want != store.CertScheme {
				t.Fatalf("SchemeError names schemes %d and %d, want 0 and %d", se.Got, se.Want, store.CertScheme)
			}
		})
	}
}

// downgradeToSchemeZero rewrites the index in dir as it was written
// before certificate schemes: zero in every WAL header's scheme field and
// a manifest without one.
func downgradeToSchemeZero(t *testing.T, dir string, shards int) {
	t.Helper()
	shardDirs := []string{dir}
	if shards > 1 {
		shardDirs = shardDirs[:0]
		for i := 0; i < shards; i++ {
			shardDirs = append(shardDirs, filepath.Join(dir, store.ShardDir(i)))
		}
		legacy, err := json.Marshal(map[string]any{"version": store.Version, "shards": shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, store.ManifestName), append(legacy, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range shardDirs {
		path := filepath.Join(d, store.WALName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint16(b[6:8]); got != store.CertScheme {
			t.Fatalf("%s: header scheme %d, want %d", path, got, store.CertScheme)
		}
		binary.LittleEndian.PutUint16(b[6:8], 0)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
