package fleet

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// CanonicalBytes returns the deterministic JSON encoding (fixed field
// order, no maps; float64 values in their exact shortest form): the
// bytes json.Marshal(m) writes, and its error for a NaN or an infinity.
// It appends them field by field rather than calling json.Marshal,
// whose encoder state comes from a sync.Pool, so that what a campaign
// set allocates does not depend on when the collector ran: it
// allocates the output only.
func (m Merged) CanonicalBytes() ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, 512+256*len(m.Results)+8*len(m.Stats.CoverageCounts))}
	w.raw(`{"results":`)
	if m.Results == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i, r := range m.Results {
			if i > 0 {
				w.raw(",")
			}
			w.result(r)
		}
		w.raw("]")
	}
	w.raw(`,"stats":`)
	w.stats(m.Stats)
	w.raw("}")
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// jsonWriter appends JSON as encoding/json spells it; err keeps the
// first value it cannot encode.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) result(r core.Result) {
	w.raw(`{"Scenario":`)
	w.str(r.Scenario)
	w.raw(`,"Found":`)
	w.b = strconv.AppendBool(w.b, r.Found)
	w.raw(`,"Source":`)
	w.str(r.Source)
	w.raw(`,"Detail":`)
	w.str(r.Detail)
	w.raw(`,"TestRuns":`)
	w.int(r.TestRuns)
	w.raw(`,"SimTicks":`)
	w.b = strconv.AppendUint(w.b, uint64(r.SimTicks), 10)
	w.raw(`,"SimSeconds":`)
	w.float(r.SimSeconds)
	w.raw(`,"Committed":`)
	w.b = strconv.AppendUint(w.b, r.Committed, 10)
	w.raw(`,"TotalCoverage":`)
	w.float(r.TotalCoverage)
	w.raw(`,"MaxNDT":`)
	w.float(r.MaxNDT)
	w.raw(`,"LastNDT":`)
	w.float(r.LastNDT)
	w.raw(`,"SumFitness":`)
	w.float(r.SumFitness)
	w.raw("}")
}

func (w *jsonWriter) stats(s MergedStats) {
	w.raw(`{"items":`)
	w.int(s.Items)
	w.raw(`,"found":`)
	w.int(s.Found)
	w.raw(`,"found_by":{"mcm_violation":`)
	w.int(s.FoundBy.MCMViolation)
	w.raw(`,"protocol_error":`)
	w.int(s.FoundBy.ProtocolError)
	w.raw(`,"deadlock":`)
	w.int(s.FoundBy.Deadlock)
	w.raw(`},"test_runs":`)
	w.int(s.TestRuns)
	w.raw(`,"sum_fitness":`)
	w.float(s.SumFitness)
	w.raw(`,"max_coverage":`)
	w.float(s.MaxCoverage)
	w.raw(`,"union_coverage":`)
	w.float(s.UnionCoverage)
	if s.CoverageKey != "" {
		w.raw(`,"coverage_key":`)
		w.str(s.CoverageKey)
	}
	if len(s.CoverageCounts) > 0 {
		w.raw(`,"coverage_counts":[`)
		for i, c := range s.CoverageCounts {
			if i > 0 {
				w.raw(",")
			}
			w.b = strconv.AppendUint(w.b, c, 10)
		}
		w.raw("]")
	}
	w.raw("}")
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// float is encoding/json's float64 encoder: the shortest 'f' form, the
// 'e' form below 1e-6 and from 1e21 on with a one-digit exponent
// unpadded, and an UnsupportedValueError for NaN and ±Inf.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// str is encoding/json's HTML-safe string encoder: `"` and `\` are
// backslash-escaped, control characters take their short escape or
// \u00XX, <, > and & take \u00XX, invalid UTF-8 becomes \ufffd and
// U+2028 and U+2029 are escaped.
func (w *jsonWriter) str(s string) {
	const hex = "0123456789abcdef"
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}
