// Package bugs is the registry of the 11 studied bugs of §5.3. Each bug
// is an injection toggle wired into the coherence protocols and the core
// model; bugs marked Real reproduce real gem5 defects (two of which were
// discovered by the paper), the others are artificial injections used to
// characterize the test generators.
package bugs

import (
	"fmt"
	"sort"
)

// Set holds the enabled injection toggles. The zero value is the fixed
// (bug-free) configuration.
type Set struct {
	// MESILQISInv: the MESI protocol sinks an Inv in the IS transient
	// state and fails to forward the invalidation to the Load Queue
	// when the data response later arrives in IS_I. Causes read→read
	// reordering (Peekaboo). Real gem5 bug found by the paper.
	MESILQISInv bool
	// MESILQSMInv: Inv received in SM is not forwarded to the LSQ.
	// Causes read→read reordering. Real gem5 bug found by the paper.
	MESILQSMInv bool
	// MESILQEInv: invalidation received in E is not forwarded to the
	// LQ. Artificial.
	MESILQEInv bool
	// MESILQMInv: invalidation received in M is not forwarded to the
	// LQ. Artificial.
	MESILQMInv bool
	// MESILQSRepl: replacement of an S line does not notify the LQ.
	// Artificial.
	MESILQSRepl bool
	// MESIPUTXRace: the L2 mishandles a PUTX from the current owner
	// while blocked on a forwarded GETX (invalid transition; the race
	// found by Komuravelli et al. via model checking). Real (historic)
	// gem5 bug.
	MESIPUTXRace bool
	// MESIReplaceRace: an L2 replacement of a block it believes clean
	// (silently upgraded E→M by the owner) drops the dirty writeback
	// data, leaving memory stale. Artificial.
	MESIReplaceRace bool
	// TSOCCNoEpochIDs: timestamp resets are not epoch-guarded, so
	// in-flight responses race with resets and self-invalidation is
	// missed. Causes read→read reordering. Artificial.
	TSOCCNoEpochIDs bool
	// TSOCCCompare: the timestamp-group comparison uses > instead of
	// the required ≥, missing self-invalidation for same-group writes.
	// Causes read→read reordering. Artificial.
	TSOCCCompare bool
	// LQNoTSO: the LQ does not squash speculatively performed loads on
	// a forwarded invalidation. Causes read→read reordering to
	// different addresses. Real gem5 bug (fixed upstream March 2014).
	LQNoTSO bool
	// SQNoFIFO: the store buffer drains out of order, causing
	// write→write reordering. Artificial.
	SQNoFIFO bool
}

// Any reports whether at least one bug is enabled.
func (s Set) Any() bool { return s != Set{} }

// Protocol names a coherence protocol a bug applies to.
type Protocol string

// Protocols under study (§5.3).
const (
	ProtoMESI  Protocol = "MESI"
	ProtoTSOCC Protocol = "TSO-CC"
	ProtoAny   Protocol = "any"
)

// Bug describes one studied bug.
type Bug struct {
	// Name is the paper's identifier, e.g. "MESI,LQ+IS,Inv".
	Name string
	// Protocol is the coherence protocol the bug requires; ProtoAny
	// bugs (pipeline bugs) manifest under either protocol.
	Protocol Protocol
	// Real marks real gem5 bugs (the paper's "*" annotation).
	Real bool
	// Description summarizes the defect.
	Description string
	// Enable switches the bug on in a Set.
	Enable func(*Set)
}

// registry lists all studied bugs in the paper's Table 4 order.
var registry = []Bug{
	{
		Name: "MESI,LQ+IS,Inv", Protocol: ProtoMESI, Real: true,
		Description: "Inv sunk in IS not forwarded to LQ with IS_I data (read→read reordering)",
		Enable:      func(s *Set) { s.MESILQISInv = true },
	},
	{
		Name: "MESI,LQ+SM,Inv", Protocol: ProtoMESI, Real: true,
		Description: "Inv in SM not forwarded to LSQ (read→read reordering)",
		Enable:      func(s *Set) { s.MESILQSMInv = true },
	},
	{
		Name: "MESI,LQ+E,Inv", Protocol: ProtoMESI, Real: false,
		Description: "Invalidation in E not forwarded to LQ (read→read reordering)",
		Enable:      func(s *Set) { s.MESILQEInv = true },
	},
	{
		Name: "MESI,LQ+M,Inv", Protocol: ProtoMESI, Real: false,
		Description: "Invalidation in M not forwarded to LQ (read→read reordering)",
		Enable:      func(s *Set) { s.MESILQMInv = true },
	},
	{
		Name: "MESI,LQ+S,Replacement", Protocol: ProtoMESI, Real: false,
		Description: "S replacement does not notify LQ (read→read reordering)",
		Enable:      func(s *Set) { s.MESILQSRepl = true },
	},
	{
		Name: "MESI+PUTX-Race", Protocol: ProtoMESI, Real: true,
		Description: "PUTX vs forwarded-GETX race hits an invalid L2 transition",
		Enable:      func(s *Set) { s.MESIPUTXRace = true },
	},
	{
		Name: "MESI+Replace-Race", Protocol: ProtoMESI, Real: false,
		Description: "L2 replacement of a believed-clean MT block drops dirty writeback",
		Enable:      func(s *Set) { s.MESIReplaceRace = true },
	},
	{
		Name: "TSO-CC+no-epoch-ids", Protocol: ProtoTSOCC, Real: false,
		Description: "timestamp reset races unguarded by epoch ids (read→read reordering)",
		Enable:      func(s *Set) { s.TSOCCNoEpochIDs = true },
	},
	{
		Name: "TSO-CC+compare", Protocol: ProtoTSOCC, Real: false,
		Description: "timestamp-group compare uses > instead of ≥ (read→read reordering)",
		Enable:      func(s *Set) { s.TSOCCCompare = true },
	},
	{
		Name: "LQ+no-TSO", Protocol: ProtoAny, Real: true,
		Description: "LQ does not squash loads on forwarded invalidation (read→read reordering)",
		Enable:      func(s *Set) { s.LQNoTSO = true },
	},
	{
		Name: "SQ+no-FIFO", Protocol: ProtoAny, Real: false,
		Description: "store buffer drains out of order (write→write reordering)",
		Enable:      func(s *Set) { s.SQNoFIFO = true },
	},
}

// All returns the studied bugs in Table 4 order.
func All() []Bug {
	return append([]Bug(nil), registry...)
}

// Names returns all bug names in Table 4 order.
func Names() []string {
	names := make([]string, len(registry))
	for i, b := range registry {
		names[i] = b.Name
	}
	return names
}

// ByName returns the named bug.
func ByName(name string) (Bug, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	candidates := Names()
	sort.Strings(candidates)
	return Bug{}, fmt.Errorf("bugs: unknown bug %q (known: %v)", name, candidates)
}

// SetFor returns a Set with exactly the named bug enabled.
func SetFor(name string) (Set, error) {
	b, err := ByName(name)
	if err != nil {
		return Set{}, err
	}
	var s Set
	b.Enable(&s)
	return s, nil
}
