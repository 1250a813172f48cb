package trace

import (
	"fmt"
	"io"
)

// Reader is a stream of traces in either format.
type Reader interface {
	// Next returns the next trace, or io.EOF after the last one.
	Next() (*Trace, error)
}

// NewReader returns a reader of the stream r in the format its first
// bytes name: a BinaryDecoder when it opens with BinaryMagic, else a
// TextReader. The bytes read to tell the two apart, and how reading
// them stopped, go on to the reader it returns, so the stream is read
// once, by one rule. It fails only when the stream fails before it has
// given as many bytes as the magic holds; that error keeps the words of
// the oracle package's sniff, which cmd/check prints.
func NewReader(r io.Reader) (Reader, error) {
	src := source{r: r}
	magic := make([]byte, len(BinaryMagic))
	n := src.fill(magic, len(magic))
	switch {
	case n < len(magic) && src.err != io.EOF:
		return nil, fmt.Errorf("oracle: sniff trace format: %w", src.err)
	case string(magic) == BinaryMagic:
		return &BinaryDecoder{src: src, buf: append(make([]byte, 0, binaryWindow), magic...)}, nil
	}
	t := NewTextReader(nil)
	t.src, t.rest = src, magic[:n]
	return t, nil
}

// DecodeAll reads every trace in a stream of either format (see
// NewReader).
func DecodeAll(r io.Reader) ([]*Trace, error) {
	d, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []*Trace
	for {
		t, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// source is the stream a decoder or a TextReader reads. err is the
// first error its reader returned, io.EOF at the stream's end; the
// hundredth empty read in a row is io.ErrNoProgress, as bufio gives up
// on a reader.
type source struct {
	r     io.Reader
	err   error
	empty int
}

// fill reads into b until it holds want bytes or the stream stops, and
// returns how many bytes it read.
func (s *source) fill(b []byte, want int) int {
	n := 0
	for n < want && s.err == nil {
		k, err := s.r.Read(b[n:])
		n += k
		switch {
		case err != nil:
			s.err = err
		case k > 0:
			s.empty = 0
		default:
			if s.empty++; s.empty == 100 {
				s.err = io.ErrNoProgress
			}
		}
	}
	return n
}
