package memmodel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// These tests pin Builder's validation surface directly — the sugar the
// litmus shim and trace decoder lean on is exercised elsewhere; here the
// subject is what Build refuses and how errors stick.

func TestBuilderValueResolution(t *testing.T) {
	b := NewBuilder()
	w := b.Write(1, x, 1)
	r1 := b.Read(2, x, 1)
	r0 := b.Read(2, y, 0)
	xc, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got, ok := xc.RF(r1); !ok || got != w {
		t.Errorf("rf(read 1) = %d, %v; want %d", got, ok, w)
	}
	if got, ok := xc.RF(r0); !ok || got != xc.InitWrite(y) {
		t.Errorf("rf(read 0) = %d, %v; want the initial write", got, ok)
	}
	if res := NewChecker().Check(xc, SC{}); !res.Valid {
		t.Errorf("trivial execution rejected: %s", res.Detail)
	}
}

func TestBuilderAmbiguousValueNeedsPin(t *testing.T) {
	b := NewBuilder()
	b.Write(1, x, 7)
	b.Write(2, x, 7)
	b.Read(3, x, 7)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "pin the rf edge") {
		t.Fatalf("ambiguous value accepted: %v", err)
	}

	// Pinning resolves the ambiguity.
	b = NewBuilder()
	w1 := b.Write(1, x, 7)
	b.Write(2, x, 7)
	r := b.Read(3, x, 7)
	b.SetRF(r, w1)
	xc, err := b.Build()
	if err != nil {
		t.Fatalf("pinned build: %v", err)
	}
	if got, _ := xc.RF(r); got != w1 {
		t.Errorf("pin ignored: rf = %d, want %d", got, w1)
	}
}

func TestBuilderUnproducedValue(t *testing.T) {
	b := NewBuilder()
	b.Write(1, x, 1)
	b.Read(2, x, 9)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no producing write") {
		t.Fatalf("unproduced value accepted: %v", err)
	}
}

// TestBuilderErrorsStick: the first malformed call poisons the builder;
// Build reports that error, not a later one.
func TestBuilderErrorsStick(t *testing.T) {
	b := NewBuilder()
	b.Write(InitTID, x, 1)    // first error: reserved TID
	b.Fence(1, NumFenceKinds) // second error, must not displace the first
	b.Read(2, x, 9)           // would be an unproduced-value error at Build
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "reserved initial-write TID") {
		t.Fatalf("Err() = %v, want the first (reserved TID) error", err)
	}
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "reserved initial-write TID") {
		t.Fatalf("Build = %v, want the first (reserved TID) error", err)
	}
}

func TestBuilderReservedTID(t *testing.T) {
	for name, misuse := range map[string]func(b *Builder){
		"read":  func(b *Builder) { b.Read(InitTID, x, 0) },
		"write": func(b *Builder) { b.Write(InitTID, x, 1) },
		"fence": func(b *Builder) { b.Fence(InitTID, FenceFull) },
	} {
		b := NewBuilder()
		misuse(b)
		if b.Err() == nil {
			t.Errorf("%s with InitTID accepted", name)
		}
	}
}

func TestBuilderFenceKindValidation(t *testing.T) {
	b := NewBuilder()
	b.Fence(1, NumFenceKinds)
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "unknown fence kind") {
		t.Fatalf("out-of-range fence kind accepted: %v", err)
	}
}

func TestBuilderCOValidation(t *testing.T) {
	unknown := relation.EventID(99)
	for name, tc := range map[string]struct {
		misuse func(b *Builder, w1, w2, r relation.EventID)
		detail string
	}{
		"count mismatch": {func(b *Builder, w1, _, _ relation.EventID) { b.CO(x, w1) }, "1 writes, 2 registered"},
		"duplicate":      {func(b *Builder, w1, _, _ relation.EventID) { b.CO(x, w1, w1) }, "twice"},
		"non-write":      {func(b *Builder, w1, _, r relation.EventID) { b.CO(x, w1, r) }, "not a write"},
		"wrong address":  {func(b *Builder, w1, w2, _ relation.EventID) { b.CO(y, w1, w2) }, "different address"},
		"unknown event":  {func(b *Builder, w1, _, _ relation.EventID) { b.CO(x, w1, unknown) }, "unknown event"},
		"set twice": {func(b *Builder, w1, w2, _ relation.EventID) {
			b.CO(x, w1, w2)
			b.CO(x, w2, w1)
		}, "set twice"},
	} {
		b := NewBuilder()
		w1 := b.Write(1, x, 1)
		w2 := b.Write(2, x, 2)
		r := b.Read(3, x, 1)
		tc.misuse(b, w1, w2, r)
		err := b.Err()
		if err == nil || !strings.Contains(err.Error(), tc.detail) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.detail)
		}
	}
}

func TestBuilderSetRFValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		misuse func(b *Builder, w, wy, r relation.EventID)
		detail string
	}{
		"write as target": {func(b *Builder, w, _, _ relation.EventID) { b.SetRF(w, w) }, "not a read"},
		"read as source":  {func(b *Builder, _, _, r relation.EventID) { b.SetRF(r, r) }, "not a write"},
		"addr mismatch":   {func(b *Builder, _, wy, r relation.EventID) { b.SetRF(r, wy) }, "address mismatch"},
		"unknown event":   {func(b *Builder, w, _, _ relation.EventID) { b.SetRF(relation.EventID(99), w) }, "unknown event"},
		"double pin": {func(b *Builder, w, _, r relation.EventID) {
			b.SetRF(r, w)
			b.SetRF(r, w)
		}, "two rf edges"},
		"pin then init": {func(b *Builder, w, _, r relation.EventID) {
			b.SetRF(r, w)
			b.SetRFInit(r)
		}, "two rf edges"},
		"init on write": {func(b *Builder, w, _, _ relation.EventID) { b.SetRFInit(w) }, "not a read"},
	} {
		b := NewBuilder()
		w := b.Write(1, x, 1)
		wy := b.Write(1, y, 1)
		r := b.Read(2, x, 1)
		tc.misuse(b, w, wy, r)
		err := b.Err()
		if err == nil || !strings.Contains(err.Error(), tc.detail) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.detail)
		}
	}
}

func TestBuilderBuildTwice(t *testing.T) {
	b := NewBuilder()
	b.Write(1, x, 1)
	if _, err := b.Build(); err != nil {
		t.Fatalf("first Build: %v", err)
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "Build called twice") {
		t.Fatalf("second Build = %v, want single-use error", err)
	}
}

func TestBuilderMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild on a poisoned builder did not panic")
		}
	}()
	b := NewBuilder()
	b.Write(InitTID, x, 1)
	b.MustBuild()
}

// TestBuilderCOOverrideOrder: an override reverses the default
// registration order and that reversal is what Check sees.
func TestBuilderCOOverrideOrder(t *testing.T) {
	b := NewBuilder()
	w1 := b.Write(1, x, 1)
	w2 := b.Write(2, x, 2)
	b.CO(x, w2, w1)
	xc, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	order := xc.CO(x)
	// The initial write, when present, stays co-minimal; the explicit
	// writes must appear in override order.
	got := order[len(order)-2:]
	if got[0] != w2 || got[1] != w1 {
		t.Fatalf("co(x) = %v, want ... %d %d", order, w2, w1)
	}
}

// TestBuilderLookupAndDuplicateKey: Lookup resolves keys whether a
// thread's keys ascend in program order or not; DuplicateKey names the
// first event added that repeats an earlier one's key.
func TestBuilderLookupAndDuplicateKey(t *testing.T) {
	b := NewBuilder()
	ids := map[Key]relation.EventID{}
	for _, k := range []Key{
		{TID: 3, Instr: 0}, {TID: 3, Instr: 4}, {TID: 3, Instr: 4, Sub: 1}, {TID: 3, Instr: 1 << 30}, // ascending
		{TID: 1, Instr: 1000}, {TID: 1, Instr: 0}, {TID: 1, Instr: 7, Sub: 2}, {TID: 1, Instr: 7}, // not
	} {
		ids[k] = b.ReadKeyed(k, x, 0, false)
	}
	for k, want := range ids {
		if got, ok := b.Lookup(k); !ok || got != want {
			t.Errorf("Lookup(%v) = %d, %v; want %d", k, got, ok, want)
		}
	}
	for _, k := range []Key{{TID: 3, Instr: 2}, {TID: 3, Instr: 4, Sub: 2}, {TID: 2}, {TID: InitTID}, {TID: 1, Instr: 7, Sub: 1}} {
		if got, ok := b.Lookup(k); ok {
			t.Errorf("Lookup(%v) = %d, want no such event", k, got)
		}
	}
	if k, dup := b.DuplicateKey(); dup {
		t.Fatalf("DuplicateKey = %v on distinct keys", k)
	}

	// Two repeats: thread 1's comes first in insertion order.
	first := b.ReadKeyed(Key{TID: 1, Instr: 0}, y, 0, false)
	b.ReadKeyed(Key{TID: 3, Instr: 4}, y, 0, false)
	if k, dup := b.DuplicateKey(); !dup || k != (Key{TID: 1, Instr: 0}) {
		t.Fatalf("DuplicateKey = %v, %v; want t1:i0.0 (event %d)", k, dup, first)
	}
	if got, _ := b.Lookup(Key{TID: 1, Instr: 0}); got != ids[Key{TID: 1, Instr: 0}] {
		t.Errorf("Lookup of a repeated key = %d, want the first event %d", got, ids[Key{TID: 1, Instr: 0}])
	}
}

// TestBuilderUntouchedStaysInvisible: only threads and addresses that
// events touch appear in the built execution — an address only a CO call
// ever named appears nowhere.
func TestBuilderUntouchedStaysInvisible(t *testing.T) {
	b := NewBuilder()
	b.Write(9, x, 1)
	b.CO(y) // no writes to y: an empty order is its whole order
	xc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := xc.Threads(); !reflect.DeepEqual(got, []int{9}) {
		t.Errorf("Threads = %v, want [9]", got)
	}
	if got := xc.Addresses(); !reflect.DeepEqual(got, []memsys.Addr{x}) {
		t.Errorf("Addresses = %v, want [%v]", got, x)
	}

	b = NewBuilder()
	b.CO(y)
	b.CO(y)
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "set twice") {
		t.Errorf("second CO of an untouched address: %v, want 'set twice'", err)
	}
}

// TestBuilderAddressSlotsAreTouched: a CO call naming an address no
// event touches leaves no address slot behind, so every slot of a built
// execution is an address it lists.
func TestBuilderAddressSlotsAreTouched(t *testing.T) {
	b := NewBuilder()
	b.CO(y)
	w := b.Write(1, x, 1)
	b.Read(2, x, 1)
	b.CO(x, w)
	xc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := xc.NumAddrSlots(), len(xc.Addresses()); got != want {
		t.Fatalf("%d address slots for %d addresses %v", got, want, xc.Addresses())
	}
}
