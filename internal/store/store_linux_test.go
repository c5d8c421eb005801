package store

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestStoreFailedAppendLeavesLogIntact: an Append whose write fails part
// way must not leave its bytes in the log, or the next acknowledged
// record is written after them and read back as the tail of a torn
// record — lost, and its id handed out again. A file-size limit a few
// bytes past the log's end makes the write fail after a partial write, as
// a full disk would. The failed record is long, so that without the
// cut-back its head swallows the next record whole. Its partial write is
// first shorter than the next record, then longer, which the next record
// would not overwrite.
func TestStoreFailedAppendLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	certs := []string{"a", "b", "c"}
	s := openAppend(t, dir, certs)

	// Past the limit a write fails with EFBIG instead of raising SIGXFSZ.
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	for _, partial := range []uint64{5, 40} {
		info, err := os.Stat(filepath.Join(dir, WALName))
		if err != nil {
			t.Fatal(err)
		}
		limited := old
		limited.Cur = uint64(info.Size()) + partial
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
			t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
		}
		_, appendErr := s.Append(strings.Repeat("d", 64))
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
		if appendErr == nil {
			t.Fatal("Append past the file-size limit succeeded")
		}

		next := fmt.Sprintf("e%d", partial)
		if seq, err := s.Append(next); err != nil || seq != uint64(len(certs)) {
			t.Fatalf("Append after the failure = %d, %v; want seq %d", seq, err, len(certs))
		}
		certs = append(certs, next)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, res := reopen(t, dir)
	defer s.Close()
	wantCerts(t, res.Certs, certs)
	if res.TornBytes != 0 {
		t.Fatalf("TornBytes = %d, want 0", res.TornBytes)
	}
}
