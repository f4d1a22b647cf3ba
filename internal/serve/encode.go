package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file writes an EstimateResponse straight to the bytes
// json.MarshalIndent(resp, "", "  ") plus a newline would produce, in
// one pass: an estimate-scale response is a few hundred KB, and
// marshalling it and then re-scanning the result to indent it was a
// measurable share of each request. It follows encoding/json's rules
// exactly: floats in 'f' form, switching to 'e' below 1e-6 and from
// 1e21 (e-07 written e-7); HTML-safe string escaping, \ufffd for
// invalid UTF-8 and escaped U+2028/U+2029; sorted map keys; null for a
// nil slice or map, [] and {} for empty ones; and the same
// UnsupportedValueError on NaN or ±Inf. FuzzEncodeEstimateMatchesMarshalIndent
// holds the two to the same bytes.

// estimateEncoder is the reusable working state of one encode: the
// output buffer, the sorted map keys, and the first error.
type estimateEncoder struct {
	b    []byte
	keys []string
	err  error
}

var encoderPool = sync.Pool{New: func() any { return new(estimateEncoder) }}

// encodeEstimate renders resp as marshalBody would through
// json.MarshalIndent. The result is a fresh slice of exactly the body's
// length; the working buffer returns to a pool.
func encodeEstimate(resp *EstimateResponse) ([]byte, error) {
	e := encoderPool.Get().(*estimateEncoder)
	defer encoderPool.Put(e)
	e.b, e.err = e.b[:0], nil
	e.response(resp)
	if e.err != nil {
		return nil, e.err
	}
	return append([]byte(nil), e.b...), nil
}

func (e *estimateEncoder) response(r *EstimateResponse) {
	e.b = append(e.b, "{\n  \"workflow\": "...)
	e.str(r.Workflow)
	e.b = append(e.b, ",\n  \"makespan_s\": "...)
	e.float(r.MakespanS)
	e.b = append(e.b, ",\n  \"stages\": "...)
	e.seq(r.Stages == nil, len(r.Stages), '[', ']', "  ", func(i int) { e.stage(&r.Stages[i]) })
	e.b = append(e.b, ",\n  \"states\": "...)
	e.seq(r.States == nil, len(r.States), '[', ']', "  ", func(i int) { e.state(&r.States[i]) })
	e.b = append(e.b, "\n}\n"...)
}

// seq appends an array or object of n elements the way MarshalIndent
// writes one whose line is indented by indent: null when nil, bare
// brackets when empty, else each element, written by elem, on a line of
// its own one level deeper.
func (e *estimateEncoder) seq(isNil bool, n int, open, close byte, indent string, elem func(i int)) {
	switch {
	case isNil:
		e.b = append(e.b, "null"...)
	case n == 0:
		e.b = append(e.b, open, close)
	default:
		e.b = append(e.b, open)
		for i := 0; i < n; i++ {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, '\n')
			e.b = append(e.b, indent...)
			e.b = append(e.b, "  "...)
			elem(i)
		}
		e.b = append(e.b, '\n')
		e.b = append(e.b, indent...)
		e.b = append(e.b, close)
	}
}

func (e *estimateEncoder) stage(s *StageBody) {
	e.b = append(e.b, "{\n      \"job\": "...)
	e.str(s.Job)
	e.b = append(e.b, ",\n      \"stage\": "...)
	e.str(s.Stage)
	e.b = append(e.b, ",\n      \"start_s\": "...)
	e.float(s.StartS)
	e.b = append(e.b, ",\n      \"end_s\": "...)
	e.float(s.EndS)
	e.b = append(e.b, ",\n      \"task_time_s\": "...)
	e.float(s.TaskTimeS)
	e.b = append(e.b, ",\n      \"parallelism\": "...)
	e.b = strconv.AppendInt(e.b, int64(s.Parallelism), 10)
	e.b = append(e.b, ",\n      \"bottleneck\": "...)
	e.str(s.Bottleneck)
	e.b = append(e.b, "\n    }"...)
}

func (e *estimateEncoder) state(s *StateBody) {
	e.b = append(e.b, "{\n      \"seq\": "...)
	e.b = strconv.AppendInt(e.b, int64(s.Seq), 10)
	e.b = append(e.b, ",\n      \"start_s\": "...)
	e.float(s.StartS)
	e.b = append(e.b, ",\n      \"end_s\": "...)
	e.float(s.EndS)
	e.b = append(e.b, ",\n      \"running\": "...)
	e.seq(s.Running == nil, len(s.Running), '[', ']', "      ", func(i int) { e.str(s.Running[i]) })
	e.b = append(e.b, ",\n      \"parallelism\": "...)
	e.keys = e.keys[:0]
	for k := range s.Parallelism {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	e.seq(s.Parallelism == nil, len(e.keys), '{', '}', "      ", func(i int) {
		e.str(e.keys[i])
		e.b = append(e.b, ": "...)
		e.b = strconv.AppendInt(e.b, int64(s.Parallelism[e.keys[i]]), 10)
	})
	e.b = append(e.b, "\n    }"...)
}

// float appends f as encoding/json does, or records its error.
func (e *estimateEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string with encoding/json's HTML-safe
// escaping.
func (e *estimateEncoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}
