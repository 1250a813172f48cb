package coherence

import (
	"os"
	"strings"
	"testing"
)

// TestVocabularyGolden pins the wire vocabulary: per protocol, every
// transition's name in TransitionID order. Fleet shards ship coverage
// as count vectors indexed by TransitionID, so a shard and the merger
// built from different numberings would add up unrelated transitions.
// A protocol change that adds or removes a cell moves this golden on
// purpose; nothing else may.
func TestVocabularyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/vocabulary.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, p := range []struct {
		name  string
		names []string
	}{{"MESI", MESITransitions()}, {"TSO-CC", TSOCCTransitions()}} {
		got.WriteString("# " + p.name + "\n")
		for _, n := range p.names {
			got.WriteString(n + "\n")
		}
	}
	if got.String() != string(want) {
		t.Errorf("vocabulary differs from testdata/vocabulary.golden:\n%s", got.String())
	}
}
