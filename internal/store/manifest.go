package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Sharded index layout. A single-shard index keeps the original layout —
// index.wal directly in the root directory, no manifest — so every
// pre-shard directory stays readable. A sharded index root instead holds
// a manifest plus one subdirectory per shard, each with its own WAL:
//
//	index.manifest          {"version":1,"shards":16,"cert_scheme":1}
//	shard-000/index.wal
//	shard-001/…
//
// The manifest is the source of truth for the shard count: it is written
// once at creation (atomic tmp+rename) and never changes,
// so reopening with a different -shards flag adopts the on-disk count
// instead of sharding certificates inconsistently.

// ManifestName is the shard-layout manifest file inside an index root.
const ManifestName = "index.manifest"

// MaxShards bounds the shard count a manifest may declare; beyond it a
// manifest is treated as corrupt rather than obeyed.
const MaxShards = 4096

// Manifest describes a sharded index root. TreeStore records that the
// index was created with an AutoTree store (a trees/ subdirectory per
// shard); it is informational — the layout is self-describing, and the
// field is optional so pre-treestore manifests stay readable and older
// builds ignore it. Scheme is the certificate scheme (CertScheme) the
// index was written under; a manifest without one is scheme 0.
type Manifest struct {
	Version   uint16 `json:"version"`
	Shards    int    `json:"shards"`
	TreeStore bool   `json:"tree_store,omitempty"`
	Scheme    uint16 `json:"cert_scheme"`
}

// ShardDir returns the subdirectory name of shard i ("shard-007").
func ShardDir(i int) string { return fmt.Sprintf("shard-%03d", i) }

// ReadManifest loads and validates dir's manifest. A missing manifest
// returns an error matching os.ErrNotExist (the single-shard layout); one
// written under another certificate scheme, a *SchemeError.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("store: %s: %v: %w", ManifestName, err, ErrChecksum)
	}
	if m.Version != Version {
		return m, &VersionError{File: ManifestName, Got: m.Version, Want: Version}
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return m, fmt.Errorf("store: %s: implausible shard count %d: %w", ManifestName, m.Shards, ErrChecksum)
	}
	if m.Scheme != CertScheme {
		return m, &SchemeError{File: ManifestName, Got: m.Scheme, Want: CertScheme}
	}
	return m, nil
}

// WriteManifest creates dir's manifest via a temporary file, fsync, and
// atomic rename, so a crash mid-creation never leaves a torn manifest.
// It stamps this build's format version and certificate scheme.
func WriteManifest(dir string, m Manifest) error {
	if m.Shards < 1 || m.Shards > MaxShards {
		return fmt.Errorf("store: manifest shard count %d out of range [1,%d]", m.Shards, MaxShards)
	}
	if m.Version == 0 {
		m.Version = Version
	}
	m.Scheme = CertScheme
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}
