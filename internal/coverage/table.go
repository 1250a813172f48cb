package coverage

import "sort"

// TransitionID is the dense interned index of a transition within a
// Table. It is an alias (not a defined type) so that a Tracker
// structurally satisfies the ID-based coverage-sink interface declared
// in the coherence package without either package importing the other.
type TransitionID = uint32

// NoTransitionID marks a transition the interning table does not know.
// Controllers that pre-resolve their vocabulary record it for entries
// the table lacks; RecordID tallies it in UnknownRecords.
const NoTransitionID TransitionID = ^TransitionID(0)

// Table interns a protocol's transition vocabulary once: every
// (controller, state, event) triple of the coherence transition table
// maps to a dense TransitionID, so the per-event hot path can count
// into flat arrays instead of hashing string triples. IDs are assigned
// in sorted transition order, making them deterministic regardless of
// the enumeration order of the protocol tables (which iterate Go maps).
type Table struct {
	index   map[Transition]TransitionID
	entries []Transition
}

// NewTable interns the given vocabulary, dropping duplicates.
func NewTable(all []Transition) *Table {
	seen := make(map[Transition]struct{}, len(all))
	entries := make([]Transition, 0, len(all))
	for _, tr := range all {
		if _, dup := seen[tr]; dup {
			continue
		}
		seen[tr] = struct{}{}
		entries = append(entries, tr)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].less(entries[j]) })
	index := make(map[Transition]TransitionID, len(entries))
	for i, tr := range entries {
		index[tr] = TransitionID(i)
	}
	return &Table{index: index, entries: entries}
}

func (a Transition) less(b Transition) bool {
	if a.Controller != b.Controller {
		return a.Controller < b.Controller
	}
	if a.State != b.State {
		return a.State < b.State
	}
	return a.Event < b.Event
}

// Len is the vocabulary size (the coverage denominator).
func (t *Table) Len() int { return len(t.entries) }

// ID resolves a transition to its interned ID; ok is false for
// transitions outside the vocabulary.
func (t *Table) ID(tr Transition) (TransitionID, bool) {
	id, ok := t.index[tr]
	return id, ok
}

// Lookup is the inverse of ID.
func (t *Table) Lookup(id TransitionID) (Transition, bool) {
	if uint64(id) >= uint64(len(t.entries)) {
		return Transition{}, false
	}
	return t.entries[id], true
}
