// Package store implements the durable tier behind collective.Memo: an
// append-only, on-disk verdict table keyed by scoped execution
// signature (collective.ScopedKey) and shared across process restarts,
// so a fleet campaign — or cmd/check run — warm-starts from every
// verdict any previous campaign computed.
//
// The format is built for crash safety over compactness. A store is a
// directory of segment files, each a fixed 16-byte header followed by
// fixed-size 24-byte records:
//
//	header:  "MCVS" magic | uint32 LE version | 8 bytes reserved (zero)
//	record:  key.Hi uint64 LE | key.Lo uint64 LE | verdict byte |
//	         3 pad bytes (zero) | CRC32 (IEEE, LE) of the first 20 bytes
//
// The verdict byte is 0x80 for valid, or the memmodel.ViolationKind for
// invalid (kinds are < 0x80 by construction). Records are appended with
// a single write(2) each — no user-space buffering — so a killed
// process loses at most the record being written, never a previously
// acknowledged one. On open, a torn or corrupt tail (short record or
// CRC mismatch) is truncated away from the newest segment; corruption
// in the middle of an older segment abandons the remainder of that
// segment only. Full segments rotate at a size threshold and are
// fsynced on rotation, Sync, and Close.
//
// Verdicts are a pure function of the scoped key, so duplicate records
// (concurrent writers, or two campaigns computing the same signature)
// are harmless: replay keeps the first occurrence and asserts nothing
// about later ones.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/collective"
	"repro/internal/memmodel"
)

const (
	// Magic identifies a segment file.
	Magic = "MCVS"
	// Version is the current segment format version. Decoders reject
	// segments with a different version rather than guessing.
	Version = 1

	headerSize = 16
	recordSize = 24

	// verdictValid marks a valid verdict in the record's verdict byte;
	// invalid verdicts store their ViolationKind, which is < 0x80.
	verdictValid = 0x80

	// DefaultMaxSegmentRecords is the rotation threshold: segments
	// rotate after this many records (~24 MiB per segment).
	DefaultMaxSegmentRecords = 1 << 20
)

// Store is an on-disk verdict table implementing
// collective.VerdictStore. All methods are safe for concurrent use.
// Lookups are served from an in-memory index loaded at Open; Puts
// append to the active segment under a lock.
//
// Write errors (disk full, permission) are latched rather than
// returned from Put — a memo lookup cannot fail — and surface through
// Err and Close. After a write error the store keeps serving Gets and
// keeps indexing Puts in RAM; only durability is lost.
type Store struct {
	dir     string
	maxRecs int

	mu     sync.RWMutex
	index  map[collective.Sig]collective.Verdict
	active *os.File
	seq    int // sequence number of the active segment
	recs   int // records in the active segment
	err    error
}

// Open opens (creating if needed) the verdict store in dir, replays
// every segment into the in-memory index, truncates any torn tail off
// the newest segment, and positions the store to append.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		maxRecs: DefaultMaxSegmentRecords,
		index:   make(map[collective.Sig]collective.Verdict),
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		n, err := s.replay(seg.path, last)
		if err != nil {
			return nil, err
		}
		if last {
			s.seq = seg.seq
			s.recs = n
		}
	}
	if len(segs) == 0 {
		s.seq = 1
		if err := s.create(); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Re-open the newest segment for appending (replay may have
	// truncated its tail). If it is already full, rotate immediately.
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	s.active = f
	if s.recs >= s.maxRecs {
		if err := s.rotate(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

type segment struct {
	path string
	seq  int
}

// segments lists the store's segment files in sequence order.
func segments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "verdicts-%06d.seg", &seq); err == nil {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), seq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

func segName(seq int) string { return fmt.Sprintf("verdicts-%06d.seg", seq) }

// replay reads one segment into the index. For the newest segment a
// bad tail (short or CRC-failing record) is truncated so the file is
// append-clean; for older segments the remainder is abandoned in place.
// Returns the number of good records.
func (s *Store) replay(path string, truncateTail bool) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: replay %s: %w", path, err)
	}
	if len(data) < headerSize {
		// Header never written (killed mid-create): treat as empty.
		if truncateTail {
			if err := writeHeaderFile(path); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	if string(data[:4]) != Magic {
		return 0, fmt.Errorf("store: %s: bad magic %q", path, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return 0, fmt.Errorf("store: %s: unsupported version %d (want %d)", path, v, Version)
	}
	good := 0
	off := headerSize
	for off+recordSize <= len(data) {
		rec := data[off : off+recordSize]
		if crc32.ChecksumIEEE(rec[:20]) != binary.LittleEndian.Uint32(rec[20:24]) {
			break
		}
		key := collective.Sig{
			Hi: binary.LittleEndian.Uint64(rec[0:8]),
			Lo: binary.LittleEndian.Uint64(rec[8:16]),
		}
		v, ok := decodeVerdict(rec[16])
		if !ok {
			break
		}
		if _, dup := s.index[key]; !dup {
			s.index[key] = v
		}
		good++
		off += recordSize
	}
	if truncateTail && off != len(data) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return good, fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
	}
	return good, nil
}

func writeHeaderFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: rewrite header %s: %w", path, err)
	}
	if _, err := f.Write(header()); err != nil {
		f.Close()
		return fmt.Errorf("store: rewrite header %s: %w", path, err)
	}
	return f.Close()
}

func header() []byte {
	h := make([]byte, headerSize)
	copy(h, Magic)
	binary.LittleEndian.PutUint32(h[4:8], Version)
	return h
}

func encodeVerdict(v collective.Verdict) byte {
	if v.Valid {
		return verdictValid
	}
	return byte(v.Kind)
}

func decodeVerdict(b byte) (collective.Verdict, bool) {
	if b == verdictValid {
		return collective.Verdict{Valid: true}, true
	}
	k := memmodel.ViolationKind(b)
	switch k {
	case memmodel.ViolationUniproc, memmodel.ViolationAtomicity,
		memmodel.ViolationGHB, memmodel.ViolationStructural:
		return collective.Verdict{Kind: k}, true
	}
	return collective.Verdict{}, false
}

// create starts the active segment file for s.seq, writing the header.
func (s *Store) create() error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.seq)),
		os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write(header()); err != nil {
		f.Close()
		return fmt.Errorf("store: write header: %w", err)
	}
	s.active = f
	s.recs = 0
	return nil
}

// rotate fsyncs and closes the active segment and starts the next one.
func (s *Store) rotate() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync segment: %w", err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	s.seq++
	return s.create()
}

// Get implements collective.VerdictStore.
func (s *Store) Get(key collective.Sig) (collective.Verdict, bool) {
	s.mu.RLock()
	v, ok := s.index[key]
	s.mu.RUnlock()
	return v, ok
}

// Put implements collective.VerdictStore: index the verdict and append
// one record. A key already present is not re-appended (verdicts are a
// pure function of the key, so the first record wins forever). Write
// errors are latched — see Err.
func (s *Store) Put(key collective.Sig, v collective.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[key]; dup {
		return
	}
	s.index[key] = v
	if s.err != nil || s.active == nil {
		return
	}
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], key.Hi)
	binary.LittleEndian.PutUint64(rec[8:16], key.Lo)
	rec[16] = encodeVerdict(v)
	binary.LittleEndian.PutUint32(rec[20:24], crc32.ChecksumIEEE(rec[:20]))
	if _, err := s.active.Write(rec[:]); err != nil {
		s.err = fmt.Errorf("store: append: %w", err)
		return
	}
	s.recs++
	if s.recs >= s.maxRecs {
		if err := s.rotate(); err != nil {
			s.err = err
		}
	}
}

// Len returns the number of distinct keys in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Err returns the latched write error, if any. The store stays usable
// as an in-RAM table after a write error; only durability is lost.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.err
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.active == nil {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		s.err = fmt.Errorf("store: sync: %w", err)
	}
	return s.err
}

// Close syncs and closes the active segment. The store must not be
// used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return s.err
	}
	syncErr := s.active.Sync()
	closeErr := s.active.Close()
	s.active = nil
	if s.err != nil {
		return s.err
	}
	if syncErr != nil {
		return fmt.Errorf("store: sync on close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("store: close: %w", closeErr)
	}
	return nil
}

var _ collective.VerdictStore = (*Store)(nil)
