// Package collective implements collective checking of candidate
// executions (MTraceCheck-style, ISCA'17): across the iterations of a
// test-run — and across the campaigns of a whole fleet — most observed
// executions repeat the same interleaving, so re-deciding each one from
// scratch wastes the checker's per-iteration hot path. This package
// collapses executions into canonical, order-independent signatures
// (per-thread program slices plus the observed rf and co conflict
// orders), memoizes verdicts in a concurrency-safe table keyed by
// signature so each unique (test, observed-ordering) pair is model-
// checked at most once per memo lifetime.
//
// Sharing a Memo across fleet workers is safe and deterministic: the
// verdict for a signature is a pure function of (execution, memory
// model) — the memo keys on both — so which worker computes it first
// never changes any campaign's results, only how much work is saved.
package collective

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/stats"
)

// Sig is a 128-bit canonical execution signature. Two executions of the
// same test that observed the same rf and co conflict orders hash to
// the same Sig regardless of the global commit interleaving that
// produced them; executions of different tests (different per-thread
// program slices) never collide except by 128-bit hash accident, which
// the non-adversarial simulation workload makes negligible.
type Sig struct{ Hi, Lo uint64 }

// String returns the signature as 32 lower-case hex digits, Hi then Lo —
// the form verdicts and goldens carry it in.
func (s Sig) String() string {
	var raw [16]byte
	var digits [32]byte
	binary.BigEndian.PutUint64(raw[:8], s.Hi)
	binary.BigEndian.PutUint64(raw[8:], s.Lo)
	hex.Encode(digits[:], raw[:])
	return string(digits[:])
}

// Section markers keep the variable-length sections of the canonical
// serialization from aliasing one another.
const (
	sigThread uint64 = 0xA11CE<<8 | iota
	sigCO
	sigInit
	sigNoRF
)

// Signature computes the canonical signature of x. The serialization is
// order-independent by construction: events are walked per thread in
// program order (never in commit order), rf is folded in at each read
// as the producing write's stable Key, and co is walked per address in
// address order. Initial writes — whose Keys depend on creation order,
// i.e. on the interleaving — are canonicalized by their address. The
// words and their order are Hasher's; Signature is its walker over a
// built execution. On an execution that has answered Threads and
// Addresses before, computing it allocates nothing.
func Signature(x *memmodel.Execution) Sig {
	h := NewHasher()
	events := x.Events()
	for _, tid := range x.Threads() {
		h.Thread(tid)
		for _, id := range x.ThreadEvents(tid) {
			e := &events[id]
			h.Event(e.Key, e.Kind, e.Fence, e.Addr, e.Value, e.Atomic)
			if e.IsRead() {
				if w, ok := x.RF(id); ok {
					h.Write(events[w].Key, events[w].Addr)
				} else {
					h.NoRF()
				}
			}
		}
	}
	for _, addr := range x.Addresses() {
		h.CO(addr)
		for _, id := range x.CO(addr) {
			h.Write(events[id].Key, events[id].Addr)
		}
	}
	return h.Sum()
}

// Hasher folds the canonical serialization of one execution into its
// Sig. It is the one definition of that serialization — its section
// markers, its words and their order — so any walker feeding it the
// same calls in the same order signs the same execution alike, whatever
// representation it walks. The calls:
//
//   - Thread for each thread with at least one event, in ascending TID
//     order, each followed by Event for the thread's events in program
//     order, and after a read's Event either Write naming the write it
//     reads from or NoRF;
//   - then CO for each address an event reads or writes, in ascending
//     order, each followed by Write for the address's coherence order,
//     the initial write first when there is one.
//
// What makes it cheap is what the words are: sub, kind, fence, the
// atomic flag and TID fit one byte, instruction indices, addresses and
// write IDs two or three, and FNV-1a takes a word's most significant
// byte and every zero byte above it in a single multiplication
// (fnv128a.u64). The digest is the same 128 bits hashing all eight bytes
// one by one gives — every stored verdict and golden signature is keyed
// under it.
type Hasher struct{ h fnv128a }

// NewHasher returns a Hasher over the empty serialization.
func NewHasher() Hasher { return Hasher{fnv128a{offset128Hi, offset128Lo}} }

// Thread opens the section of the thread tid.
func (h *Hasher) Thread(tid int) {
	h.h.u64(sigThread)
	h.h.u64(uint64(int64(tid)))
}

// Event hashes one event of the current thread: its key, kind, fence
// flavour, address, value and atomic flag. Instr and Sub matter beyond
// position: RMW atomicity pairs events by (Instr, consecutive Subs), so
// two kind/addr/value-identical slices with different pairing must not
// collide.
func (h *Hasher) Event(key memmodel.Key, kind memmodel.Kind, fence memmodel.FenceKind, addr memsys.Addr, value uint64, atomic bool) {
	h.h.u64(uint64(int64(key.Instr)))
	h.h.u64(uint64(int64(key.Sub)))
	h.h.byte1(uint64(kind))
	h.h.byte1(uint64(fence))
	h.h.u64(uint64(addr))
	h.h.u64(value)
	if atomic {
		h.h.byte1(1)
	} else {
		h.h.byte1(0)
	}
}

// Write hashes the stable name of a write another word refers to — a
// read's source or an element of a coherence order: its key, or, for
// the initial write of addr (a key with memmodel.InitTID), addr.
func (h *Hasher) Write(key memmodel.Key, addr memsys.Addr) {
	if key.TID == memmodel.InitTID {
		h.h.u64(sigInit)
		h.h.u64(uint64(addr))
		return
	}
	h.h.u64(uint64(int64(key.TID)))
	h.h.u64(uint64(int64(key.Instr)))
	h.h.u64(uint64(int64(key.Sub)))
}

// NoRF marks a read that reads from no write.
func (h *Hasher) NoRF() { h.h.u64(sigNoRF) }

// CO opens the coherence-order section of addr.
func (h *Hasher) CO(addr memsys.Addr) {
	h.h.u64(sigCO)
	h.h.u64(uint64(addr))
}

// Sum returns the signature of everything hashed so far.
func (h *Hasher) Sum() Sig { return Sig{Hi: h.h.hi, Lo: h.h.lo} }

// fnv128a is the FNV-1a 128-bit hash state — hash/fnv's New128a, inlined
// so hashing a word is a few multiply steps with no interface call and
// no allocation. The digest hash/fnv would print big-endian is hi then
// lo.
type fnv128a struct{ hi, lo uint64 }

const (
	offset128Hi = 0x6c62272e07bb0142
	offset128Lo = 0x62b821756295c58d
	// The 128-bit FNV prime is 2⁸⁸ + 0x13b.
	prime128Lo    = 0x13b
	prime128Shift = 24
)

// primePow[k] is the FNV prime to the k-th power mod 2¹²⁸: k steps on
// zero bytes in one.
var primePow = func() (pow [9]fnv128a) {
	pow[0] = fnv128a{0, 1}
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1]
		pow[k].mul(fnv128a{1 << prime128Shift, prime128Lo})
	}
	return pow
}()

// mul multiplies the state by p mod 2¹²⁸.
func (h *fnv128a) mul(p fnv128a) {
	carry, lo := bits.Mul64(h.lo, p.lo)
	h.hi = carry + h.hi*p.lo + h.lo*p.hi
	h.lo = lo
}

// u64 hashes v's eight bytes, least significant first. An FNV-1a step
// is "xor the byte in, multiply by the prime", so a zero byte is a bare
// multiplication, and v's most significant byte together with the k zero
// bytes above it is one xor and one multiplication by primeᵏ⁺¹: a word
// costs as many steps as it has significant bytes (one when it is zero),
// not eight.
func (h *fnv128a) u64(v uint64) {
	if v >= 0x100 {
		h.wide(v)
		return
	}
	h.byte1(v)
}

// byte1 is u64 for a word below 0x100: one xor, one multiplication.
func (h *fnv128a) byte1(v uint64) {
	h.lo ^= v
	h.mul(primePow[8])
}

// wide is u64 for a word of more than one significant byte.
func (h *fnv128a) wide(v uint64) {
	n := (bits.Len64(v) + 7) / 8
	hi, lo := h.hi, h.lo
	for i := 1; i < n; i++ {
		lo ^= v & 0xff
		v >>= 8
		carry, low := bits.Mul64(prime128Lo, lo)
		hi = carry + lo<<prime128Shift + prime128Lo*hi
		lo = low
	}
	h.hi, h.lo = hi, lo^v
	h.mul(primePow[9-n])
}

// Verdict is the durable essence of a check Result: validity and the
// violated constraint. The witness cycle and Detail are deliberately
// absent — they depend on the submitter's dense event numbering, so
// persisting them would make Results depend on which historical
// campaign checked first. Invalid durable hits re-derive the witness
// from the submitted execution, exactly like in-RAM invalid re-hits.
type Verdict struct {
	// Valid reports whether the execution satisfies the model.
	Valid bool `json:"valid"`
	// Kind identifies the violated constraint when invalid.
	Kind memmodel.ViolationKind `json:"kind"`
}

// VerdictOf extracts the durable essence of a Result.
func VerdictOf(res memmodel.Result) Verdict {
	return Verdict{Valid: res.Valid, Kind: res.Kind}
}

// VerdictStore is the durable tier below the in-RAM memo: an on-disk
// verdict table keyed by scoped signature (see ScopedKey) shared across
// process restarts and campaigns. Implementations must be safe for
// concurrent use; Put may be called multiple times for the same key
// (idempotent append semantics). The store subpackage provides the
// append-only segment implementation.
type VerdictStore interface {
	// Get returns the stored verdict for key, if present.
	Get(key Sig) (Verdict, bool)
	// Put records the verdict for key. Errors are the store's to
	// surface (a memo lookup cannot fail); implementations log or
	// latch them.
	Put(key Sig, v Verdict)
}

// memoShards bounds lock contention between fleet workers.
const memoShards = 64

// Memo is a concurrency-safe verdict table keyed by execution
// signature. A signature's verdict is computed at most once across all
// goroutines sharing the memo: concurrent submitters of the same new
// signature block on the first one's computation instead of repeating
// it. The zero value is not ready; call NewMemo.
//
// A Memo optionally backs onto a VerdictStore (SetStore), forming a
// two-tier lookup: RAM memo first, then the durable store, then a
// fresh model check whose verdict is written back to the store. The
// tiers are invisible to verdicts — campaign results are byte-identical
// with the store attached or not — only the Durable counter and the
// checking work change.
type Memo struct {
	checks  atomic.Uint64
	hits    atomic.Uint64
	entries atomic.Uint64
	durable atomic.Uint64
	// store is the durable tier (nil = RAM only). Set before the memo
	// is shared across goroutines.
	store  VerdictStore
	shards [memoShards]memoShard
}

type memoShard struct {
	mu sync.Mutex
	m  map[Sig]*memoEntry
}

type memoEntry struct {
	once sync.Once
	res  memmodel.Result
	// done publishes res to KnownValid, which never waits on once.
	done atomic.Bool
}

// NewMemo returns an empty verdict table.
func NewMemo() *Memo {
	m := &Memo{}
	for i := range m.shards {
		m.shards[i].m = make(map[Sig]*memoEntry)
	}
	return m
}

// SetStore attaches the durable tier (nil detaches). Call before the
// memo is shared across goroutines: the field is read without
// synchronization on the check path.
func (m *Memo) SetStore(s VerdictStore) { m.store = s }

func (m *Memo) entry(sig Sig) (*memoEntry, bool) {
	s := &m.shards[sig.Lo%memoShards]
	s.mu.Lock()
	e, ok := s.m[sig]
	if !ok {
		e = &memoEntry{}
		s.m[sig] = e
		m.entries.Add(1)
	}
	s.mu.Unlock()
	return e, ok
}

// archKey folds the memory model and the scenario scope into the lookup
// key: a verdict is a function of (execution, arch), and memos are
// exported for sharing, so a TSO verdict must never answer an SC query —
// and verdicts recorded under one scenario (model + relaxation set +
// bugs) must never answer a query from another, even when both check the
// same model name.
func archKey(sig Sig, arch memmodel.Arch, scope string) Sig {
	h := fnv.New64a()
	h.Write([]byte(arch.Name()))
	h.Write([]byte{0})
	h.Write([]byte(scope))
	n := h.Sum64()
	return Sig{Hi: sig.Hi ^ n, Lo: sig.Lo ^ (n<<32 | n>>32)}
}

// ScopedKey is the exported fold of (scenario scope, memory model,
// execution signature) into the 128-bit key the memo — and through it
// any attached VerdictStore — looks verdicts up under. External tooling
// that inspects or pre-seeds a store must key records with exactly this
// fold to interoperate with campaign lookups.
func ScopedKey(scope string, sig Sig, arch memmodel.Arch) Sig {
	return archKey(sig, arch, scope)
}

// CheckFunc is the decision procedure behind a memo: it must return
// Results identical to the exact memmodel.Checker's for every input —
// the contract a Checker with a fast pass keeps by falling back to the
// exact procedure whenever the clock rules cannot decide. A
// memmodel.Checker's Check method is one.
type CheckFunc func(*memmodel.Execution, memmodel.Arch) memmodel.Result

// CheckScopedVia returns the verdict for the execution whose signature
// is sig, running check at most once per *valid* signature. hit reports
// whether the verdict was already present (or being computed by a
// concurrent submitter). It is the memo's one entry point.
//
// Lookups are confined to a scenario scope: different scopes never
// share verdicts, so one memo can serve a whole scenario matrix without
// cross-scenario leakage. The empty scope is itself a scope.
//
// Invalid verdicts are special-cased: a hit on a known-invalid
// signature re-derives the witness (Cycle, Detail) from the submitted
// execution instead of returning the representative's. Signature-equal
// executions agree on Valid and Kind — those are graph properties,
// identical for isomorphic executions — but the witness cycle found
// first depends on the submitter's dense EventID numbering, so reusing
// the representative's would make Result details depend on which
// fleet worker checked first. Violations are terminal for a campaign,
// so the re-derivation never costs more than one extra check per
// campaign. Memo misses and these re-derivations both run through
// check, so a recorder wiring its fast path in here keeps one set of
// outcome counters covering every execution it submits.
func (m *Memo) CheckScopedVia(scope string, sig Sig, x *memmodel.Execution, arch memmodel.Arch, check CheckFunc) (res memmodel.Result, hit bool) {
	m.checks.Add(1)
	key := archKey(sig, arch, scope)
	e, _ := m.entry(key)
	computed := false
	e.once.Do(func() {
		defer e.done.Store(true)
		// Two-tier lookup: consult the durable store once per unique
		// scoped key (the once.Do makes this race-free), then fall back
		// to a fresh check whose verdict is written through. Durable
		// verdicts carry no witness, so a stored invalid re-derives it
		// via check — the same trade as in-RAM invalid re-hits — which
		// keeps Results byte-identical with and without a store.
		if m.store != nil {
			if v, ok := m.store.Get(key); ok {
				m.durable.Add(1)
				if v.Valid {
					e.res = memmodel.Result{Valid: true}
				} else {
					e.res = check(x, arch)
				}
				computed = true
				return
			}
		}
		e.res = check(x, arch)
		if m.store != nil {
			m.store.Put(key, VerdictOf(e.res))
		}
		computed = true
	})
	if computed {
		return e.res, false
	}
	m.hits.Add(1)
	if !e.res.Valid {
		return check(x, arch), true
	}
	return e.res, true
}

// KnownValid reports whether CheckScopedVia would answer (scope, sig,
// arch) valid without calling check: the memo holds a valid verdict for
// it, or the store below it does. It is a peek — it counts nothing and
// records nothing — so a caller can skip building an execution the
// lookup will not read. An entry another submitter is still computing
// is not yet known, unless the store knows it.
func (m *Memo) KnownValid(scope string, sig Sig, arch memmodel.Arch) bool {
	key := archKey(sig, arch, scope)
	s := &m.shards[key.Lo%memoShards]
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if ok && e.done.Load() {
		return e.res.Valid
	}
	if m.store == nil {
		return false
	}
	v, ok := m.store.Get(key)
	return ok && v.Valid
}

// Len returns the number of unique signatures seen.
func (m *Memo) Len() int { return int(m.entries.Load()) }

// Stats snapshots the memo's global counters. Unlike per-campaign
// counters, Hits here depends on which submitter of a concurrently-new
// signature won the race only in attribution, never in total: Checks -
// Unique == Hits always holds.
func (m *Memo) Stats() stats.Dedupe {
	return stats.Dedupe{
		Checks:  m.checks.Load(),
		Hits:    m.hits.Load(),
		Unique:  m.entries.Load(),
		Durable: m.durable.Load(),
	}
}
