package bugs

import "testing"

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registry has %d bugs, want 11 (§5.3)", len(all))
	}
	real := 0
	perProto := map[Protocol]int{}
	for _, b := range all {
		if b.Name == "" || b.Description == "" || b.Enable == nil {
			t.Errorf("bug %+v incomplete", b)
		}
		if b.Real {
			real++
		}
		perProto[b.Protocol]++
	}
	// The paper marks 4 bugs as real gem5 bugs (*).
	if real != 4 {
		t.Errorf("real bug count = %d, want 4", real)
	}
	// 7 MESI bugs, 2 TSO-CC bugs, 2 pipeline bugs that fit either.
	if perProto[ProtoMESI] != 7 || perProto[ProtoTSOCC] != 2 || perProto[ProtoAny] != 2 {
		t.Errorf("bugs per protocol = %v, want 7 MESI, 2 TSO-CC, 2 any", perProto)
	}
}

func TestEachEnableSetsExactlyOneFlag(t *testing.T) {
	seen := make(map[Set]string)
	for _, b := range All() {
		var s Set
		b.Enable(&s)
		if !s.Any() {
			t.Errorf("%s enables nothing", b.Name)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("%s and %s enable the same flag", b.Name, prev)
		}
		seen[s] = b.Name
	}
}

func TestByNameAndSetFor(t *testing.T) {
	b, err := ByName("LQ+no-TSO")
	if err != nil || b.Protocol != ProtoAny || !b.Real {
		t.Fatalf("ByName(LQ+no-TSO) = %+v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown bug accepted")
	}
	s, err := SetFor("SQ+no-FIFO")
	if err != nil || !s.SQNoFIFO || s.LQNoTSO {
		t.Fatalf("SetFor(SQ+no-FIFO) = %+v, %v", s, err)
	}
	if _, err := SetFor("nope"); err == nil {
		t.Error("SetFor unknown bug accepted")
	}
}

func TestAnyZeroValue(t *testing.T) {
	var s Set
	if s.Any() {
		t.Error("zero set reports Any")
	}
	s.MESILQISInv = true
	if !s.Any() {
		t.Error("non-zero set reports !Any")
	}
}

func TestNamesOrderMatchesTable4(t *testing.T) {
	names := Names()
	if names[0] != "MESI,LQ+IS,Inv" || names[len(names)-1] != "SQ+no-FIFO" {
		t.Errorf("Table 4 order broken: %v", names)
	}
}
