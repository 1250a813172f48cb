// Package checker records candidate executions from the simulated
// machine and verifies them against an axiomatic memory model (§4.1).
//
// The pre-silicon environment observes all conflict orders: read-from is
// recovered from unique write IDs carried as data values, and coherence
// order from the global serialization order of store performs. Each
// iteration of a test-run is checked independently; the union of each
// iteration's rf ∪ co accumulates into rfcoRUN, from which the
// test-suitability metrics NDT and NDe (Definitions 1–3) and the
// fitaddrs set driving the selective crossover are computed.
package checker

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memmodel/fastpath"
	"repro/internal/memsys"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/testgen"
)

// Violation describes a detected MCM violation.
type Violation struct {
	// Iteration is the test-run iteration that failed.
	Iteration int
	// Result is the checker verdict.
	Result memmodel.Result
	// Exec is the failing iteration's execution, which the recorder
	// hands over with the violation (its rf and co as far as they were
	// assembled). Result.Cycle names events of it.
	Exec *memmodel.Execution
	// Procedure says how the recorder reached the verdict.
	Procedure string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("checker: iteration %d: %s violation: %s",
		v.Iteration, v.Result.Kind, v.Result.Detail)
}

// subsPerInstr bounds the sub-event numbers of one instruction: an RMW
// maps to a read (sub 0) and a write (sub 1), everything else to sub 0.
const subsPerInstr = 2

// slot is the recorder's state for one event key (TID, Instr, Sub),
// found by index — slots[TID][Instr*subsPerInstr+Sub] — instead of by
// hashing the key. Both halves are epoch-stamped, so starting a new
// iteration or a new run invalidates every slot at once.
type slot struct {
	// ev is the key's event in the current iteration's execution,
	// valid while iterGen matches the recorder's.
	ev      relation.EventID
	iterGen uint64
	// run indexes the key's entry in Recorder.run, valid while runGen
	// matches the recorder's.
	run    int32
	runGen uint64
}

// runEvent is the run-level state of one distinct event executed during
// the test-run.
type runEvent struct {
	addr memsys.Addr
	// preds holds the distinct events conflict-ordered immediately
	// before this one across the run's iterations: the (pred, this)
	// pairs are exactly this event's share of rfcoRUN, and their count
	// is its NDe. Non-determinism per event is small, so membership is a
	// scan.
	preds []pred
}

// pred names a conflict-order predecessor: the run index of a program
// event, or ^(address>>3) for the initial write of a word.
type pred int64

func initPred(addr memsys.Addr) pred { return ^pred(addr >> 3) }

// Recorder implements cpu.Observer: it assembles one candidate execution
// per iteration and accumulates run-level non-determinism state.
type Recorder struct {
	arch memmodel.Arch

	// memo, when set, answers repeated executions (see SetMemo); nil
	// checks every iteration.
	memo *collective.Memo

	// chk is the unified decision procedure: the clock-rule fast path
	// (when enabled) with exact fallback, plus the fast-path outcome
	// counters. Results are identical with the fast path on or off, so
	// the toggle can never change verdicts — only the counters.
	chk *memmodel.Checker
	// decide caches the checkExec method value so the per-iteration
	// memo call does not allocate a fresh closure.
	decide collective.CheckFunc

	// slots is the per-key state, grown on demand to the shape of the
	// programs being recorded.
	slots [][]slot

	// Per-iteration state. exec is reused from iteration to iteration
	// unless lent is set: Execution hands the object out, and whoever
	// took it may keep it past EndIteration.
	exec       *memmodel.Execution
	lent       bool
	iterGen    uint64
	reads      []relation.EventID
	serialized []memmodel.Key

	// Run-level state (across iterations): one runEvent per distinct
	// read or write event, and |rfcoRUN| as the total of their preds.
	iteration int
	runGen    uint64
	run       []runEvent
	rfcoRun   int
}

// NewRecorder returns a recorder checking against arch, fast path
// first.
func NewRecorder(arch memmodel.Arch) *Recorder {
	r := &Recorder{chk: memmodel.NewChecker(memmodel.WithFastDecider(fastpath.New()))}
	r.decide = r.checkExec
	r.Reset(arch)
	return r
}

// Reset re-arms the recorder to check against arch with no memo, and
// forgets the run and iteration state: the recorder NewRecorder(arch)
// returns, keeping the storage it has grown. NewRecorder reaches its
// state through this call.
func (r *Recorder) Reset(arch memmodel.Arch) {
	r.arch, r.memo = arch, nil
	r.ResetAll()
}

// ResetAll clears both iteration and run state (verify_reset_all).
func (r *Recorder) ResetAll() {
	r.resetIteration()
	r.iteration = 0
	r.runGen++
	r.run = r.run[:0]
	r.rfcoRun = 0
	r.chk.ResetStats()
}

// SetMemo puts a verdict memo in front of the checker: each iteration's
// execution is collapsed to its signature and the verdict is fetched
// from (or computed once into) memo. Memos may be shared across
// recorders and goroutines; passing nil checks every iteration again.
func (r *Recorder) SetMemo(m *collective.Memo) { r.memo = m }

// Fastpath returns the current run's fast-path outcome counters.
func (r *Recorder) Fastpath() stats.Fastpath { return r.chk.Fastpath() }

// checkExec is the memo's CheckFunc: it decides the iteration's
// execution, which the recorder has built, so it never fails.
func (r *Recorder) checkExec() (memmodel.Result, error) { return r.chk.Check(r.exec, r.arch), nil }

func (r *Recorder) resetIteration() {
	if r.exec == nil || r.lent {
		r.exec, r.lent = memmodel.NewExecution(), false
	} else {
		// Nothing else holds the execution: verdicts, memo entries and
		// violation witnesses carry event IDs and strings, not the
		// object.
		r.exec.Reset()
	}
	r.iterGen++
	r.reads = r.reads[:0]
	r.serialized = r.serialized[:0]
}

// Execution exposes the current iteration's execution. The caller may
// keep it: EndIteration completes its rf and co in place and the
// recorder then moves on to a fresh object instead of reusing this one.
func (r *Recorder) Execution() *memmodel.Execution {
	r.lent = true
	return r.exec
}

// slot returns the state of key (tid, instr, sub), growing the table to
// hold it.
func (r *Recorder) slot(tid, instr, sub int) *slot {
	if sub < 0 || sub >= subsPerInstr {
		panic(fmt.Sprintf("checker: sub-event %d out of range [0,%d)", sub, subsPerInstr))
	}
	for tid >= len(r.slots) {
		r.slots = append(r.slots, nil)
	}
	i := instr*subsPerInstr + sub
	if i >= len(r.slots[tid]) {
		r.slots[tid] = append(r.slots[tid], make([]slot, i+1-len(r.slots[tid]))...)
	}
	return &r.slots[tid][i]
}

// peek returns key's slot without growing the table: nil when no event
// with that key was ever committed.
func (r *Recorder) peek(key memmodel.Key) *slot {
	if key.TID < 0 || key.TID >= len(r.slots) || key.Instr < 0 || key.Sub < 0 || key.Sub >= subsPerInstr {
		return nil
	}
	i := key.Instr*subsPerInstr + key.Sub
	if i >= len(r.slots[key.TID]) {
		return nil
	}
	return &r.slots[key.TID][i]
}

// event returns the current iteration's event for key, if it committed.
func (r *Recorder) event(key memmodel.Key) (relation.EventID, bool) {
	sl := r.peek(key)
	if sl == nil || sl.iterGen != r.iterGen {
		return 0, false
	}
	return sl.ev, true
}

// Iteration returns the number of completed iterations this run.
func (r *Recorder) Iteration() int { return r.iteration }

// CommitRead implements cpu.Observer.
func (r *Recorder) CommitRead(tid, instr, sub int, addr memsys.Addr, val uint64, atomic bool) {
	id := r.exec.AddEvent(memmodel.Event{
		Key:    memmodel.Key{TID: tid, Instr: instr, Sub: sub},
		Kind:   memmodel.KindRead,
		Addr:   addr.WordAddr(),
		Value:  val,
		Atomic: atomic,
	})
	r.reads = append(r.reads, id)
	r.noteEvent(r.slot(tid, instr, sub), id, addr)
}

// CommitWrite implements cpu.Observer.
func (r *Recorder) CommitWrite(tid, instr, sub int, addr memsys.Addr, val uint64, atomic bool) {
	id := r.exec.AddEvent(memmodel.Event{
		Key:    memmodel.Key{TID: tid, Instr: instr, Sub: sub},
		Kind:   memmodel.KindWrite,
		Addr:   addr.WordAddr(),
		Value:  val,
		Atomic: atomic,
	})
	r.noteEvent(r.slot(tid, instr, sub), id, addr)
}

// WriteSerialized implements cpu.Observer: calls arrive in global
// serialization order, which is the observed coherence order.
func (r *Recorder) WriteSerialized(tid, instr, sub int, addr memsys.Addr, val uint64) {
	r.serialized = append(r.serialized, memmodel.Key{TID: tid, Instr: instr, Sub: sub})
}

// CommitFence implements cpu.Observer: explicit fences become fence
// events of the candidate execution. Fences carry no address and take
// no conflict edges, so they stay out of the run-level NDT state.
func (r *Recorder) CommitFence(tid, instr, sub int, kind memmodel.FenceKind) {
	sl := r.slot(tid, instr, sub)
	sl.ev, sl.iterGen = r.exec.AddEvent(memmodel.Event{
		Key:   memmodel.Key{TID: tid, Instr: instr, Sub: sub},
		Kind:  memmodel.KindFence,
		Fence: kind,
	}), r.iterGen
}

// noteEvent binds a committed read or write to its slot and, the first
// time the run sees the key, gives it a run-level entry.
func (r *Recorder) noteEvent(sl *slot, id relation.EventID, addr memsys.Addr) {
	sl.ev, sl.iterGen = id, r.iterGen
	if sl.runGen == r.runGen {
		r.run[sl.run].addr = addr.WordAddr()
		return
	}
	sl.run, sl.runGen = int32(len(r.run)), r.runGen
	if len(r.run) < cap(r.run) {
		// Reuse the entry, and its preds backing array, left behind by
		// an earlier run.
		r.run = r.run[:len(r.run)+1]
		e := &r.run[sl.run]
		e.addr, e.preds = addr.WordAddr(), e.preds[:0]
	} else {
		r.run = append(r.run, runEvent{addr: addr.WordAddr()})
	}
}

// runPred names ev as a conflict-order predecessor.
func (r *Recorder) runPred(ev *memmodel.Event) pred {
	if ev.IsInit() {
		return initPred(ev.Addr)
	}
	return pred(r.runIndex(ev))
}

// runIndex returns the run-level entry of a committed read or write.
func (r *Recorder) runIndex(ev *memmodel.Event) int32 {
	return r.peek(ev.Key).run
}

// addRunEdge folds the conflict-order pair (p, succ) into rfcoRUN.
func (r *Recorder) addRunEdge(p pred, succ *memmodel.Event) {
	e := &r.run[r.runIndex(succ)]
	for _, q := range e.preds {
		if q == p {
			return
		}
	}
	e.preds = append(e.preds, p)
	r.rfcoRun++
}

// writeOf maps an observed nonzero value back to the write that produced
// it this iteration. Generated programs write testgen.WriteIDFor values,
// which name the writing instruction, so the producer is found in its
// slot; any other value is looked up by scanning the execution's writes.
func (r *Recorder) writeOf(val uint64) (relation.EventID, bool) {
	if tid, instr, ok := testgen.DecodeWriteID(val); ok {
		for sub := 0; sub < subsPerInstr; sub++ {
			id, ok := r.event(memmodel.Key{TID: tid, Instr: instr, Sub: sub})
			if ok {
				if ev := r.exec.Event(id); ev.IsWrite() && ev.Value == val {
					return id, true
				}
			}
		}
	}
	events := r.exec.Events()
	for i := len(events) - 1; i >= 0; i-- {
		if ev := &events[i]; ev.IsWrite() && !ev.IsInit() && ev.Value == val {
			return ev.ID, true
		}
	}
	return 0, false
}

// EndIteration assembles the iteration's candidate execution, verifies
// it, folds its conflict orders into rfcoRUN, and resets the iteration
// state (verify_reset_conflict). A nil Violation means the iteration was
// valid.
func (r *Recorder) EndIteration() *Violation {
	exec := r.exec
	// Coherence order: serialization order per address. A write may
	// serialize before its commit callback in rare schedules, so the
	// event may be missing; that is a recorder invariant failure.
	for _, key := range r.serialized {
		id, ok := r.event(key)
		if !ok {
			return r.structural(fmt.Sprintf("serialized write %v never committed", key))
		}
		if err := exec.AppendCO(id); err != nil {
			return r.structural(err.Error())
		}
	}
	// Read-from: map observed values back to producing writes; zero is
	// the initial value.
	for _, read := range r.reads {
		ev := exec.Event(read)
		var w relation.EventID
		if ev.Value == 0 {
			w = exec.InitWrite(ev.Addr)
		} else {
			var ok bool
			w, ok = r.writeOf(ev.Value)
			if !ok {
				// The read observed a value no write produced:
				// corrupted data (e.g. a dropped writeback).
				return r.structural(fmt.Sprintf("read %v observed value %#x with no producing write", ev, ev.Value))
			}
		}
		if err := exec.SetRF(read, w); err != nil {
			return r.structural(err.Error())
		}
	}

	var res memmodel.Result
	if r.memo != nil {
		// The memo model-checks each unique (program, observed-ordering)
		// pair at most once. Its error is checkExec's, which has none.
		res, _, _ = r.memo.Check(collective.Signature(exec), r.arch, r.decide)
	} else {
		res = r.chk.Check(exec, r.arch)
	}

	// Fold this iteration's rf and co (immediate edges) into rfcoRUN
	// (Definition 1), regardless of validity.
	for _, read := range r.reads {
		w, _ := exec.RF(read)
		r.addRunEdge(r.runPred(exec.Event(w)), exec.Event(read))
	}
	for _, addr := range exec.Addresses() {
		p := initPred(addr)
		for _, id := range exec.CO(addr) {
			ev := exec.Event(id)
			if !ev.IsInit() {
				r.addRunEdge(p, ev)
				p = r.runPred(ev)
			}
		}
	}

	var v *Violation
	if !res.Valid {
		// Every invalid verdict, memo hit or not, comes from a check this
		// recorder's chk just ran (the memo re-derives invalid witnesses).
		proc := "fast path inconclusive; the exact check decided"
		if r.chk.LastFast() == memmodel.FastInvalid {
			proc = "fast path invalid; the exact check derived the witness"
		}
		v = &Violation{Iteration: r.iteration, Result: res, Exec: exec, Procedure: proc}
		r.lent = true // the violation keeps the execution
	}
	r.iteration++
	r.resetIteration()
	return v
}

// structural ends the iteration in a malformed execution: the recorder
// could not assemble its rf or co. The violation takes the execution as
// far as it got; the run's next ResetAll moves on to a new one.
func (r *Recorder) structural(detail string) *Violation {
	r.lent = true
	return &Violation{
		Iteration: r.iteration,
		Result:    memmodel.Result{Kind: memmodel.ViolationStructural, Detail: detail},
		Exec:      r.exec,
		Procedure: "none: the recorder could not assemble rf and co",
	}
}

// NDT returns the average non-determinism of the test-run
// (Definition 2): |rfcoRUN| / n, over the distinct events executed.
func (r *Recorder) NDT() float64 {
	if len(r.run) == 0 {
		return 0
	}
	return float64(r.rfcoRun) / float64(len(r.run))
}

// NDe returns the non-determinism of one event (Definition 3): the
// number of distinct events conflict-ordered before it across the run.
func (r *Recorder) NDe(key memmodel.Key) int {
	sl := r.peek(key)
	if sl == nil || sl.runGen != r.runGen {
		return 0
	}
	return len(r.run[sl.run].preds)
}

// FitAddrs adds to into the addresses of events whose NDe exceeds the
// rounded NDT of the test (§3.3) — the selective crossover's preferred
// set — and returns into. Into is the caller's, typically an emptied
// set it recycles.
func (r *Recorder) FitAddrs(into map[memsys.Addr]bool) map[memsys.Addr]bool {
	cut := int(math.Round(r.NDT()))
	for i := range r.run {
		if len(r.run[i].preds) > cut {
			into[r.run[i].addr] = true
		}
	}
	return into
}
