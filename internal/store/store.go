// Package store persists a certificate index: the durable substrate under
// dvicl.GraphIndex and the indexd daemon.
//
// The on-disk state of an index directory is one file, index.wal: a
// header, then one record per Add. The index is append-only — no Add
// removes or rewrites a certificate — so the log is the whole state and
// nothing ever rewrites what is already on disk.
//
// The format is versioned and checksummed (see the format comments
// below). The recovery contract:
//
//   - The log may legitimately end mid-record after a crash (the torn
//     tail of the write in flight at kill -9). Open truncates a torn tail
//     and reports the dropped byte count in Result.TornBytes — recovery
//     is explicit, never silent. Any *complete* record whose checksum
//     fails, and any out-of-order sequence number, is corruption and
//     fails the load with ErrChecksum / ErrOutOfOrder: partial state is
//     never returned.
//
//   - An Append that fails is cut back off the log before it returns, so
//     the next acknowledged record starts where the last one ended.
//
// Older builds also compacted the log into a snapshot, index.snap.
// Nothing writes one any more, but Open still reads a snapshot an older
// build left as the prefix of the log: it must verify end to end — magic,
// version, certificate scheme, record framing and the trailing CRC — or
// loading fails with a typed error (ErrBadMagic, *VersionError,
// *SchemeError, ErrChecksum, ErrTruncated). Every log record carries the
// sequence number (= certificate id) it appends, so records the snapshot
// already covers (an older build's crash between the snapshot rename and
// the log reset) are recognized and skipped.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// File names inside an index directory. Only the WAL is written; a
// snapshot is read when an older build left one.
const (
	SnapshotName = "index.snap"
	WALName      = "index.wal"
)

// Format constants. Snapshot and WAL carry distinct magics so a
// misconfigured path fails loudly instead of decoding garbage.
const (
	snapMagic = "DVIS"
	walMagic  = "DVIW"
	// Version is the current on-disk format version of both files.
	Version uint16 = 1
	// CertScheme identifies the canonical labeling whose certificates
	// this build stores; the manifest and the snapshot and WAL headers
	// record it. Any change that moves a certificate must increment it:
	// certificates of two schemes are not comparable, so a graph added
	// to an index of the old scheme would start a new class beside its
	// own. Scheme 0 is every index written before the leaf search
	// ordered its traces as value sequences.
	CertScheme uint16 = 1
	// maxRecordLen caps a single certificate's encoded size; a length
	// field beyond it is treated as corruption rather than attempted as
	// an allocation.
	maxRecordLen = 1 << 28
)

// Typed load errors. Callers match them with errors.Is / errors.As; every
// failure path returns one of these wrapped with file context — loading
// never panics and never returns partial state.
var (
	// ErrBadMagic: the file does not start with the expected magic bytes.
	ErrBadMagic = errors.New("store: bad magic")
	// ErrChecksum: a complete snapshot or WAL record fails CRC32
	// verification, or carries an implausible length field.
	ErrChecksum = errors.New("store: checksum mismatch")
	// ErrTruncated: the file ends in the middle of a header or record
	// where the format requires more bytes (a snapshot or a tree record;
	// Open recovers a torn WAL tail instead).
	ErrTruncated = errors.New("store: truncated file")
	// ErrOutOfOrder: a WAL record's sequence number is neither covered by
	// the snapshot nor the next expected id.
	ErrOutOfOrder = errors.New("store: WAL sequence out of order")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("store: closed")
)

// VersionError reports an on-disk format version this build cannot read.
type VersionError struct {
	File string
	Got  uint16
	Want uint16
}

// Error implements the error interface.
func (e *VersionError) Error() string {
	return fmt.Sprintf("store: %s: format version %d, this build reads %d", e.File, e.Got, e.Want)
}

// SchemeError reports an index written under another certificate scheme
// than this build's (CertScheme). Its certificates are not comparable
// with the ones this build computes, so it must be re-ingested from its
// source graphs.
type SchemeError struct {
	File string
	Got  uint16
	Want uint16
}

// Error implements the error interface.
func (e *SchemeError) Error() string {
	return fmt.Sprintf("store: %s: certificate scheme %d, this build writes scheme %d; re-ingest the index from its source graphs",
		e.File, e.Got, e.Want)
}

// Options configures a Store.
type Options struct {
	// Sync fsyncs the WAL after every Append. Off, durability of the tail
	// is bounded by the OS page-cache flush interval; on, every
	// acknowledged Add survives power loss at the cost of one fsync per
	// write.
	Sync bool
}

// Result describes what Open loaded.
type Result struct {
	// Certs is the recovered certificate list, id-ordered: an older
	// build's snapshot, if the directory holds one, followed by the
	// replayed WAL records.
	Certs []string
	// SnapshotCerts is how many of Certs came from an older build's
	// snapshot.
	SnapshotCerts int
	// WALReplayed is how many WAL records extended the snapshot (records
	// it already covers are not counted).
	WALReplayed int
	// TornBytes is the size of the torn WAL tail dropped during crash
	// recovery (0 on a clean shutdown).
	TornBytes int64
}

// Store is the durable backend of one index directory: an open WAL
// accepting appends. Methods are not themselves synchronized —
// dvicl.GraphIndex serializes access under its own lock so WAL order
// always matches id order.
type Store struct {
	opt    Options
	wal    *os.File
	walBuf []byte // scratch for record framing
	// nextSeq is the sequence number the next Append writes (= the id the
	// index will assign); end is the log's size after the last
	// acknowledged record, where a failed Append is cut back to.
	nextSeq uint64
	end     int64
	// broken latches a failed cut-back: the log's tail is unknown, so
	// every later Append returns it.
	broken error
	closed bool
}

// Open loads (or creates) the index directory and returns the store plus
// what it recovered. See the package comment for the recovery contract.
func Open(dir string, opt Options) (*Store, *Result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	res := &Result{}
	certs, err := ReadSnapshotFile(filepath.Join(dir, SnapshotName))
	switch {
	case err == nil:
		// An older build's snapshot: the prefix of the log.
		res.Certs = certs
		res.SnapshotCerts = len(certs)
	case errors.Is(err, os.ErrNotExist):
		// The usual case: the log alone is the index.
	default:
		return nil, nil, err
	}

	wal, err := os.OpenFile(filepath.Join(dir, WALName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{opt: opt, wal: wal}
	if err := s.replayWAL(res); err != nil {
		wal.Close()
		return nil, nil, err
	}
	s.nextSeq = uint64(len(res.Certs))
	return s, res, nil
}

// replayWAL reads the open WAL into res, recovering a torn tail by
// truncating it. The file offset is left at the end for appends.
func (s *Store) replayWAL(res *Result) error {
	info, err := s.wal.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		// New WAL: stamp the header.
		return s.writeWALHeader()
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReader(s.wal)
	if err := readWALHeader(br); err != nil {
		if errors.Is(err, ErrTruncated) {
			// Crash while creating the WAL: no records can exist yet.
			res.TornBytes = size
			return s.resetWAL()
		}
		return fmt.Errorf("%s: %w", WALName, err)
	}
	good := int64(walHeaderLen) // end offset of the last intact record
	next := uint64(len(res.Certs))
	snapCount := uint64(res.SnapshotCerts)
	for {
		seq, cert, n, err := readWALRecord(br)
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrTruncated) {
			// Torn tail: drop it, keep everything before.
			res.TornBytes = size - good
			break
		}
		if err != nil {
			return fmt.Errorf("%s@%d: %w", WALName, good, err)
		}
		good += int64(n)
		switch {
		case seq < snapCount:
			// Already covered by an older build's snapshot (its crash
			// landed between the snapshot rename and the WAL reset). Skip.
		case seq == next:
			res.Certs = append(res.Certs, cert)
			res.WALReplayed++
			next++
		default:
			return fmt.Errorf("%s@%d: record seq %d, want %d: %w",
				WALName, good, seq, next, ErrOutOfOrder)
		}
	}
	if good < size {
		if err := s.wal.Truncate(good); err != nil {
			return err
		}
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	s.end = good
	_, err = s.wal.Seek(good, io.SeekStart)
	return err
}

// Append durably records one certificate and returns the sequence number
// (certificate id) it was assigned. If the write (or, under Options.Sync,
// the fsync) fails, the record's bytes are cut back off the log, so a
// later Append is not read back as the tail of a torn record; should the
// cut itself fail, every later Append returns that error.
func (s *Store) Append(cert string) (uint64, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if s.broken != nil {
		return 0, s.broken
	}
	seq := s.nextSeq
	rec := appendWALRecord(s.walBuf[:0], seq, cert)
	s.walBuf = rec[:0]
	_, err := s.wal.Write(rec)
	if err == nil && s.opt.Sync {
		err = s.wal.Sync()
	}
	if err != nil {
		cerr := s.wal.Truncate(s.end)
		if cerr == nil {
			_, cerr = s.wal.Seek(s.end, io.SeekStart)
		}
		if cerr != nil {
			s.broken = fmt.Errorf("%s: cutting back a failed append: %w", WALName, cerr)
		}
		return 0, err
	}
	s.end += int64(len(rec))
	s.nextSeq++
	return seq, nil
}

// Sync fsyncs the WAL, making every acknowledged Append durable to power
// loss.
func (s *Store) Sync() error {
	if s.closed {
		return ErrClosed
	}
	return s.wal.Sync()
}

// resetWAL truncates the WAL to a fresh header.
func (s *Store) resetWAL() error {
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return s.writeWALHeader()
}

func (s *Store) writeWALHeader() error {
	var hdr [walHeaderLen]byte
	copy(hdr[:4], walMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint16(hdr[6:8], CertScheme)
	if _, err := s.wal.Write(hdr[:]); err != nil {
		return err
	}
	s.end = walHeaderLen
	return s.wal.Sync()
}

// Close syncs and closes the WAL. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}

// ---- snapshot codec ----
//
// Read only: older builds compacted the WAL into this format. Layout
// (little-endian):
//
//	magic   "DVIS"                      4 bytes
//	version uint16 + cert scheme uint16 4 bytes
//	count   uint64                      8 bytes
//	count × { len uint32, bytes }       framed certificates
//	crc32   uint32 (IEEE, over everything above)

// WriteFileAtomic replaces path with what write produces: it writes a
// temporary file <name>.tmp* in the same directory, fsyncs it, renames it
// over path and fsyncs the directory. A crash leaves the old file or the
// new one, never a torn one; at worst a stray temporary file, which
// readers ignore. On failure the temporary file is removed.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadSnapshotFile loads and fully verifies a snapshot file.
func ReadSnapshotFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	certs, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return certs, nil
}

// ReadSnapshot decodes and verifies a snapshot from r: magic, version,
// certificate scheme, framing, and the trailing CRC must all check out,
// or a typed error is returned and no data is. Nothing writes a snapshot
// any more; Open reads one an older build left as the prefix of the log.
func ReadSnapshot(r io.Reader) ([]string, error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	// read pulls exactly len(buf) bytes and folds them into the CRC, so
	// the hash covers precisely the consumed region regardless of bufio's
	// read-ahead.
	read := func(buf []byte) error {
		if _, err := io.ReadFull(br, buf); err != nil {
			return truncated(err)
		}
		crc.Write(buf)
		return nil
	}
	var hdr [16]byte
	if err := read(hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != snapMagic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, &VersionError{File: SnapshotName, Got: v, Want: Version}
	}
	if cs := binary.LittleEndian.Uint16(hdr[6:8]); cs != CertScheme {
		return nil, &SchemeError{File: SnapshotName, Got: cs, Want: CertScheme}
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	// count is not trusted either: preallocate at most 64 KiB of headers.
	certs := make([]string, 0, int(min(count, 1<<12)))
	var lenBuf [4]byte
	for i := uint64(0); i < count; i++ {
		if err := read(lenBuf[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxRecordLen {
			return nil, fmt.Errorf("record %d: implausible length %d: %w", i, n, ErrChecksum)
		}
		buf, err := readFull(br, int(n))
		if err != nil {
			return nil, err
		}
		crc.Write(buf)
		certs = append(certs, string(buf))
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, truncated(err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc.Sum32() {
		return nil, ErrChecksum
	}
	return certs, nil
}

// ---- WAL codec ----
//
// File header (little-endian): magic "DVIW" (4) + version uint16 +
// cert scheme uint16. Then records:
//
//	len  uint32  — payload (certificate) length
//	seq  uint64  — certificate id this record appends
//	payload
//	crc  uint32  — CRC32-IEEE over len+seq+payload
const walHeaderLen = 8

// readWALHeader verifies the WAL file header.
func readWALHeader(br *bufio.Reader) error {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return truncated(err)
	}
	if string(hdr[:4]) != walMagic {
		return ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return &VersionError{File: WALName, Got: v, Want: Version}
	}
	if cs := binary.LittleEndian.Uint16(hdr[6:8]); cs != CertScheme {
		return &SchemeError{File: WALName, Got: cs, Want: CertScheme}
	}
	return nil
}

// appendWALRecord frames (seq, cert) onto buf and returns the extended
// slice.
func appendWALRecord(buf []byte, seq uint64, cert string) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cert)))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, cert...)
	sum := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// readWALRecord reads one record. It returns io.EOF cleanly at a record
// boundary, ErrTruncated when the stream ends mid-record, and ErrChecksum
// when a complete record fails verification. n is the encoded size.
func readWALRecord(br *bufio.Reader) (seq uint64, cert string, n int, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, "", 0, io.EOF
		}
		return 0, "", 0, truncated(err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length > maxRecordLen {
		return 0, "", 0, fmt.Errorf("implausible record length %d: %w", length, ErrChecksum)
	}
	seq = binary.LittleEndian.Uint64(hdr[4:12])
	payload, err := readFull(br, int(length))
	if err != nil {
		return 0, "", 0, err
	}
	var sumBuf [4]byte
	if _, err := io.ReadFull(br, sumBuf[:]); err != nil {
		return 0, "", 0, truncated(err)
	}
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
	if binary.LittleEndian.Uint32(sumBuf[:]) != sum {
		return 0, "", 0, ErrChecksum
	}
	return seq, string(payload), int(len(hdr)) + int(length) + 4, nil
}

// readStep is the most readFull allocates ahead of the bytes it has read.
const readStep = 64 << 10

// readFull reads exactly n bytes from r. It trusts n only as far as the
// bytes arrive: the buffer starts at readStep and doubles, so a corrupt
// length field costs about twice the bytes really present, not n.
func readFull(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, truncated(err)
		}
	}
	return buf, nil
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}
