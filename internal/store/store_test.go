package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func testCerts(n int) []string {
	certs := make([]string, n)
	for i := range certs {
		certs[i] = strings.Repeat("c", i%7) + string(rune('a'+i%26)) + "cert"
	}
	return certs
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, certs := range [][]string{nil, {""}, {"a"}, testCerts(100)} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, certs); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(certs) {
			t.Fatalf("got %d certs, want %d", len(got), len(certs))
		}
		for i := range certs {
			if got[i] != certs[i] {
				t.Fatalf("cert %d: %q != %q", i, got[i], certs[i])
			}
		}
	}
}

func TestSnapshotCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, testCerts(20)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		copy(b, "NOPE")
		if _, err := ReadSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(b[4:6], Version+7)
		_, err := ReadSnapshot(bytes.NewReader(b))
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("err = %v, want *VersionError", err)
		}
		if ve.Got != Version+7 || ve.Want != Version {
			t.Fatalf("VersionError = %+v", ve)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)/2] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 10, len(good) / 2, len(good) - 1} {
			if _, err := ReadSnapshot(bytes.NewReader(good[:cut])); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := ReadSnapshot(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
}

// openAppend opens dir and appends certs, returning the store (caller
// closes unless simulating a crash).
func openAppend(t *testing.T, dir string, certs []string) *Store {
	t.Helper()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range certs {
		seq, err := s.Append(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.nextSeq - 1; seq != got {
			t.Fatalf("append %d: seq %d, nextSeq-1 %d", i, seq, got)
		}
	}
	return s
}

func reopen(t *testing.T, dir string) (*Store, *Result) {
	t.Helper()
	s, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func wantCerts(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d certs, want %d\n got: %q\nwant: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cert %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestStoreWALReload(t *testing.T) {
	dir := t.TempDir()
	certs := testCerts(50)
	s := openAppend(t, dir, certs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, res := reopen(t, dir)
	defer s2.Close()
	wantCerts(t, res.Certs, certs)
	if res.SnapshotCerts != 0 || res.WALReplayed != 50 || res.TornBytes != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestStoreCompactAndReload(t *testing.T) {
	dir := t.TempDir()
	certs := testCerts(30)
	s := openAppend(t, dir, certs[:20])
	if err := s.Compact(certs[:20]); err != nil {
		t.Fatal(err)
	}
	if s.SinceSnapshot() != 0 {
		t.Fatalf("SinceSnapshot = %d after compact", s.SinceSnapshot())
	}
	for _, c := range certs[20:] {
		if _, err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, res := reopen(t, dir)
	defer s2.Close()
	wantCerts(t, res.Certs, certs)
	if res.SnapshotCerts != 20 || res.WALReplayed != 10 {
		t.Fatalf("result = %+v", res)
	}
}

// TestStoreCrashNoClose simulates kill -9: the first store is never
// closed, yet a reopen of the same directory sees every acknowledged
// Append.
func TestStoreCrashNoClose(t *testing.T) {
	dir := t.TempDir()
	certs := testCerts(25)
	_ = openAppend(t, dir, certs) // never closed — "crashed"
	s2, res := reopen(t, dir)
	defer s2.Close()
	wantCerts(t, res.Certs, certs)
}

// TestStoreTornTail simulates a record half-written at crash time: the
// torn bytes are dropped and reported, everything before them survives.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	certs := testCerts(10)
	s := openAppend(t, dir, certs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a partial record by hand.
	walPath := filepath.Join(dir, WALName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := appendWALRecord(nil, 10, "torn-away-cert")
	torn := full[:len(full)-5]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, res := reopen(t, dir)
	wantCerts(t, res.Certs, certs)
	if res.TornBytes != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", res.TornBytes, len(torn))
	}
	// The torn tail was truncated: appending and reloading works.
	if _, err := s2.Append("after-recovery"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, res3 := reopen(t, dir)
	defer s3.Close()
	wantCerts(t, res3.Certs, append(append([]string(nil), certs...), "after-recovery"))
}

// TestStoreWALChecksumCorruption: a bit flip inside a complete record must
// fail the load with ErrChecksum, not silently drop or truncate.
func TestStoreWALChecksumCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openAppend(t, dir, testCerts(10))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALName)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	b[walHeaderLen+20] ^= 0x01 // inside an early record's payload/frame
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open err = %v, want ErrChecksum", err)
	}
}

// TestStoreSnapshotVersionMismatch: a future-format snapshot must refuse
// to load with *VersionError.
func TestStoreSnapshotVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openAppend(t, dir, testCerts(5))
	if err := s.Compact(testCerts(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, SnapshotName)
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:6], Version+1)
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Open err = %v, want *VersionError", err)
	}
}

// TestStoreStaleWALAfterCompactCrash covers the compaction window: the
// snapshot has been renamed into place but the WAL still holds the old
// records. Replay must skip them (idempotent by sequence number).
func TestStoreStaleWALAfterCompactCrash(t *testing.T) {
	dir := t.TempDir()
	certs := testCerts(15)
	s := openAppend(t, dir, certs)
	// Write the snapshot but "crash" before resetWAL.
	err := WriteFileAtomic(filepath.Join(dir, SnapshotName), func(w io.Writer) error {
		return WriteSnapshot(w, certs)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s // never closed

	s2, res := reopen(t, dir)
	defer s2.Close()
	wantCerts(t, res.Certs, certs)
	if res.SnapshotCerts != 15 || res.WALReplayed != 0 {
		t.Fatalf("result = %+v", res)
	}
}

// TestStoreWALBadMagic: a WAL that does not start with the WAL magic
// fails Open with ErrBadMagic rather than being replayed or reset.
func TestStoreWALBadMagic(t *testing.T) {
	dir := t.TempDir()
	s := openAppend(t, dir, []string{"x", "y", "z"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALName)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "JUNK")
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Open err = %v, want ErrBadMagic", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s := openAppend(t, t.TempDir(), []string{"a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := s.Compact(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSizeBombsAllocateLittle: length and count fields are trusted only
// as far as the bytes behind them. A snapshot that claims a 256 MiB
// record or 2^40 records, and a WAL whose tail claims a 256 MiB record,
// must fail or recover exactly as a plain truncation does, without
// allocating what the header claims.
func TestSizeBombsAllocateLittle(t *testing.T) {
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	snapshot := func(count uint64, recordLen uint32) []byte {
		b := make([]byte, 16, 20)
		copy(b, snapMagic)
		binary.LittleEndian.PutUint16(b[4:6], Version)
		binary.LittleEndian.PutUint16(b[6:8], CertScheme)
		binary.LittleEndian.PutUint64(b[8:16], count)
		if recordLen > 0 {
			b = binary.LittleEndian.AppendUint32(b, recordLen)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		snap []byte
	}{
		{"snapshot record length", snapshot(1, maxRecordLen)},
		{"snapshot record count", snapshot(1<<40, 0)},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotName), tc.snap, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		n := allocated(func() { _, _, err = Open(dir, Options{}) })
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err = %v, want ErrTruncated", tc.name, err)
		}
		if n > 1<<20 {
			t.Fatalf("%s: allocated %d bytes", tc.name, n)
		}
	}

	dir := t.TempDir()
	certs := []string{"a", "b", "c"}
	if err := openAppend(t, dir, certs).Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, WALName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := binary.LittleEndian.AppendUint32(nil, maxRecordLen)
	tail = binary.LittleEndian.AppendUint64(tail, uint64(len(certs)))
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var s *Store
	var res *Result
	n := allocated(func() { s, res, err = Open(dir, Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wantCerts(t, res.Certs, certs)
	if res.TornBytes != int64(len(tail)) {
		t.Fatalf("TornBytes = %d, want %d", res.TornBytes, len(tail))
	}
	if n > 1<<20 {
		t.Fatalf("WAL record length: allocated %d bytes", n)
	}
}
