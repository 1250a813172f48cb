package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
)

func key(i uint64) collective.Sig { return collective.Sig{Hi: i * 0x9E3779B97F4A7C15, Lo: i} }

func verdict(i uint64) collective.Verdict {
	if i%2 == 0 {
		return collective.Verdict{Valid: true}
	}
	kinds := []memmodel.ViolationKind{
		memmodel.ViolationUniproc,
		memmodel.ViolationAtomicity,
		memmodel.ViolationGHB,
		memmodel.ViolationStructural,
	}
	return collective.Verdict{Kind: kinds[i%uint64(len(kinds))]}
}

func TestRoundTripReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := uint64(0); i < n; i++ {
		s.Put(key(i), verdict(i))
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d", got, n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := s2.Get(key(i))
		if !ok {
			t.Fatalf("key %d missing after reopen", i)
		}
		if v != verdict(i) {
			t.Fatalf("key %d = %+v, want %+v", i, v, verdict(i))
		}
	}
}

// TestKillAndReopen simulates an abrupt process death: records are
// written with no Close/Sync, the *os.File is abandoned, and a fresh
// Open must still see every record (each Put is a single write(2), so
// the OS has the bytes even if the process never flushed).
func TestKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := uint64(0); i < n; i++ {
		s.Put(key(i), verdict(i))
	}
	// No Close, no Sync: drop the store on the floor like a SIGKILL.
	s = nil //nolint:ineffassign

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("post-kill Len = %d, want %d", got, n)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		s.Put(key(i), verdict(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 5 bytes off the segment.
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segs[len(segs)-1].path
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != 9 {
		t.Fatalf("Len after torn tail = %d, want 9", got)
	}
	if _, ok := s2.Get(key(9)); ok {
		t.Fatal("torn record should be gone")
	}
	// The tail must be truncated clean so new appends land on a record
	// boundary and survive another reopen.
	s2.Put(key(9), verdict(9))
	s2.Put(key(10), verdict(10))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Len(); got != 11 {
		t.Fatalf("Len after repair+append = %d, want 11", got)
	}
}

func TestCorruptCRCTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		s.Put(key(i), verdict(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in record 5's payload: records 5..9 become
	// unreachable (replay stops at the first bad CRC).
	segs, _ := segments(dir)
	path := segs[len(segs)-1].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[16+5*24+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 5 {
		t.Fatalf("Len after CRC corruption = %d, want 5", got)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxRecs = 8
	const n = 30
	for i := uint64(0); i < n; i++ {
		s.Put(key(i), verdict(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >= 3 segments after rotation, got %d", len(segs))
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("Len across segments = %d, want %d", got, n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := s2.Get(key(i)); !ok || v != verdict(i) {
			t.Fatalf("key %d lost across rotation: %+v %v", i, v, ok)
		}
	}
}

func TestDuplicatePutNotReappended(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(key(1), verdict(1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(dir)
	fi, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerSize + recordSize); fi.Size() != want {
		t.Fatalf("segment size = %d, want %d (one record)", fi.Size(), want)
	}
}

func TestBadMagicAndVersionRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, []byte("NOPE00000000000000000000"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("bad magic should fail Open")
	}

	h := header()
	binary.LittleEndian.PutUint32(h[4:8], Version+1)
	if err := os.WriteFile(path, h, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("unknown version should fail Open")
	}
}

func TestHeaderlessTailSegmentRepaired(t *testing.T) {
	dir := t.TempDir()
	// A segment file that got created but died before the header write
	// completed (3 bytes only).
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("MC"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(7), verdict(7))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxRecs = 64
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := uint64(0); i < 200; i++ {
				k := key(i)
				s.Put(k, verdict(i))
				if v, ok := s.Get(k); ok && v != verdict(i) {
					t.Errorf("goroutine %d: key %d = %+v", g, i, v)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 200 {
		t.Fatalf("Len = %d, want 200", got)
	}
}
