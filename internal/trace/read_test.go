package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// TestDecodeAllReadsEitherFormat: DecodeAll reads a text stream and its
// binary form to the same traces, whatever size of pieces its reader
// hands it the magic in. A read error before the magic is whole fails
// the sniff, wrapped, and so does the hundredth empty read in a row;
// one after it is the format's own error.
func TestDecodeAllReadsEitherFormat(t *testing.T) {
	all := []*Trace{extremeTrace(), residue, benchTrace(t)}
	var text, bin bytes.Buffer
	if err := WriteText(&text, all...); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, all...); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"text": text.Bytes(), "binary": bin.Bytes()} {
		for how, r := range map[string]io.Reader{
			"whole":       bytes.NewReader(in),
			"one byte":    iotest.OneByteReader(bytes.NewReader(in)),
			"empty reads": &stutterReader{r: bytes.NewReader(in)},
		} {
			got, err := DecodeAll(r)
			if err != nil || !reflect.DeepEqual(got, all) {
				t.Errorf("%s, %s: %d traces, %v; want the %d encoded", name, how, len(got), err, len(all))
			}
		}
	}
	for _, c := range []struct{ in, want string }{
		{"", "oracle: sniff trace format: device gone"},
		{"MCV", "oracle: sniff trace format: device gone"},
		{"mctr", "trace: line 1: read: device gone"},
		{"MCVB", "trace: binary: trace 1, byte 4: reading format version: device gone"},
	} {
		_, err := DecodeAll(failingReader{strings.NewReader(c.in)})
		if err == nil || err.Error() != c.want || !errors.Is(err, errReadFailed) {
			t.Errorf("%q, then a read error: %v, want %q wrapping it", c.in, err, c.want)
		}
	}
	if got, err := DecodeAll(&stalled{99}); err != nil || len(got) != 0 {
		t.Errorf("99 empty reads, then the end: %d traces, %v; want an empty stream", len(got), err)
	}
	if _, err := DecodeAll(&stalled{100}); !errors.Is(err, io.ErrNoProgress) || !strings.HasPrefix(err.Error(), "oracle: sniff trace format: ") {
		t.Errorf("100 empty reads: %v, want the sniff to fail with io.ErrNoProgress", err)
	}
}
