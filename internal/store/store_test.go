package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// writeSnapshot encodes certs in the snapshot format of older builds,
// stamped with the given certificate scheme. Nothing in the package
// writes a snapshot any more; the tests use it to build the directories
// those builds left.
func writeSnapshot(w io.Writer, certs []string, scheme uint16) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var hdr [16]byte
	copy(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint16(hdr[6:8], scheme)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(certs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var lenBuf [4]byte
	for _, c := range certs {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(c)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(c); err != nil {
			return err
		}
	}
	// Flush pushes every hashed byte through the MultiWriter before the
	// trailer is written directly to w (the trailer is not part of the
	// CRC'd region).
	if err := bw.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// writeSnapshotFile leaves in dir the snapshot of certs an older build
// wrote at compaction.
func writeSnapshotFile(t *testing.T, dir string, certs []string, scheme uint16) {
	t.Helper()
	err := WriteFileAtomic(filepath.Join(dir, SnapshotName), func(w io.Writer) error {
		return writeSnapshot(w, certs, scheme)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, certs := range [][]string{nil, {""}, {"a"}, testCerts(100)} {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, certs, CertScheme); err != nil {
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
	if err := writeSnapshot(&buf, testCerts(20), CertScheme); err != nil {
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

// TestStoreLegacySnapshotThenWAL: a directory an older build compacted
// (a snapshot plus the header-only WAL it reset) reopens with the
// snapshot as the log's prefix, appends continue its ids, and the
// snapshot is read, never rewritten.
func TestStoreLegacySnapshotThenWAL(t *testing.T) {
	dir := t.TempDir()
	certs := testCerts(30)
	writeSnapshotFile(t, dir, certs[:20], CertScheme)
	if err := openAppend(t, dir, nil).Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, SnapshotName)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	have := 20 // certificates in the directory
	for _, part := range [][]string{certs[20:25], certs[25:]} {
		s, res := reopen(t, dir)
		wantCerts(t, res.Certs, certs[:have])
		if res.SnapshotCerts != 20 || res.WALReplayed != have-20 {
			t.Fatalf("result = %+v", res)
		}
		for _, c := range part {
			if seq, err := s.Append(c); err != nil || seq != uint64(have) {
				t.Fatalf("Append = %d, %v; want seq %d", seq, err, have)
			}
			have++
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, res := reopen(t, dir)
	defer s.Close()
	wantCerts(t, res.Certs, certs)
	if after, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(after, snap) {
		t.Fatalf("snapshot changed on disk (err %v)", err)
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

// TestStoreTornTail cuts a 4-record log at every byte, as a crash can:
// Open returns exactly the records wholly inside the cut and reports the
// rest as TornBytes (the whole file, below the 8-byte header), and an
// Append after the cut survives a reopen under the next id. That record
// is shorter than the longest torn tail, so Open must truncate the tail,
// not merely write over it. The same cuts run on a directory holding an
// older build's snapshot, whose ids the log continues.
func TestStoreTornTail(t *testing.T) {
	for _, base := range [][]string{nil, testCerts(3)} {
		recs := []string{"r0", "", "record-two", "r3"}
		ref := t.TempDir()
		if base != nil {
			writeSnapshotFile(t, ref, base, CertScheme)
		}
		if err := openAppend(t, ref, recs).Close(); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(filepath.Join(ref, WALName))
		if err != nil {
			t.Fatal(err)
		}
		// ends[i] is the log's size once record i is whole.
		ends := make([]int, len(recs))
		end := walHeaderLen
		for i, c := range recs {
			end += len(appendWALRecord(nil, uint64(len(base)+i), c))
			ends[i] = end
		}
		if end != len(full) {
			t.Fatalf("log is %d bytes, framing accounts for %d", len(full), end)
		}

		for cut := 0; cut <= len(full); cut++ {
			dir := t.TempDir()
			if base != nil {
				writeSnapshotFile(t, dir, base, CertScheme)
			}
			if err := os.WriteFile(filepath.Join(dir, WALName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			whole, torn := 0, cut
			if cut >= walHeaderLen {
				torn = cut - walHeaderLen
				for whole < len(recs) && ends[whole] <= cut {
					torn = cut - ends[whole]
					whole++
				}
			}
			want := append(append([]string(nil), base...), recs[:whole]...)

			s, res := reopen(t, dir)
			wantCerts(t, res.Certs, want)
			if res.TornBytes != int64(torn) {
				t.Fatalf("cut %d: TornBytes = %d, want %d", cut, res.TornBytes, torn)
			}
			if seq, err := s.Append("z"); err != nil || seq != uint64(len(want)) {
				t.Fatalf("cut %d: Append = %d, %v; want seq %d", cut, seq, err, len(want))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, res = reopen(t, dir)
			wantCerts(t, res.Certs, append(want, "z"))
			if res.TornBytes != 0 {
				t.Fatalf("cut %d: TornBytes = %d after a clean close", cut, res.TornBytes)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
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
	writeSnapshotFile(t, dir, testCerts(5), CertScheme)
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

// TestStoreSnapshotOtherScheme: a snapshot an older build wrote under
// certificate scheme 0 fails Open with a *SchemeError naming both
// schemes, even though the WAL beside it is current.
func TestStoreSnapshotOtherScheme(t *testing.T) {
	dir := t.TempDir()
	if err := openAppend(t, dir, nil).Close(); err != nil {
		t.Fatal(err)
	}
	writeSnapshotFile(t, dir, testCerts(5), 0)
	_, _, err := Open(dir, Options{})
	var se *SchemeError
	if !errors.As(err, &se) {
		t.Fatalf("Open err = %v, want *SchemeError", err)
	}
	if se.File != SnapshotName || se.Got != 0 || se.Want != CertScheme {
		t.Fatalf("SchemeError = %+v, want %s with schemes 0 and %d", se, SnapshotName, CertScheme)
	}
}

// TestStoreStaleWALAfterCompactCrash covers an older build's compaction
// window: the snapshot has been renamed into place but the WAL still
// holds the old records. Replay must skip them (idempotent by sequence
// number).
func TestStoreStaleWALAfterCompactCrash(t *testing.T) {
	dir := t.TempDir()
	certs := testCerts(15)
	_ = openAppend(t, dir, certs) // never closed
	// The snapshot lands, but the "crash" comes before the WAL reset.
	writeSnapshotFile(t, dir, certs, CertScheme)

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
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync err = %v, want ErrClosed", err)
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
