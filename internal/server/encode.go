// This file is the wire encoder of QueryAnswer, the body of POST /v1/query.
// A pair answer can run to megabytes; encoding/json would reflect over every
// NamedPair and hold the whole document in memory before the first byte
// leaves. The encoder here appends the same bytes by hand into one pooled
// buffer and hands it to the client every answerFlushBytes, so its cost
// follows the answer and its scratch stays bounded whatever the answer size.

package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// answerFlushBytes is the buffered size at which writeAnswer hands the
// encoded answer to the client.
const answerFlushBytes = 32 << 10

// maxPooledAnswerBytes caps the buffer a pooled encoder keeps: one element
// larger than the flush threshold (a long witness path, a big trace) may
// grow it, and such a buffer is dropped rather than pinned by the pool.
const maxPooledAnswerBytes = 4 * answerFlushBytes

// answerEncoders pools the encoders writeAnswer uses.
var answerEncoders = sync.Pool{New: func() any { return new(answerEncoder) }}

// answerEncoder appends a QueryAnswer's JSON to buf. With w set it hands
// buf to w whenever buf passes answerFlushBytes; the first write error
// stops further writes. The zero value appends to a fresh buffer.
type answerEncoder struct {
	buf []byte
	w   io.Writer
	err error
	// std encodes the values the hand encoder does not: Explain, Stats and
	// strings that need escaping. It writes into this encoder, HTML
	// escaping off, exactly as writeJSON does.
	std *json.Encoder
}

// writeAnswer writes a as the 200 response of a query. It runs after the
// answer is rendered, so no lock is held while the client reads.
func writeAnswer(w http.ResponseWriter, a *QueryAnswer) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	e := answerEncoders.Get().(*answerEncoder)
	e.w = w
	e.appendJSON(a)
	e.flush()
	e.w, e.err = nil, nil
	if cap(e.buf) <= maxPooledAnswerBytes {
		answerEncoders.Put(e)
	}
}

// Write appends p to the buffer; it is std's destination.
func (e *answerEncoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// appendJSON appends the wire form of a: the bytes writeJSON would write
// for it, in QueryAnswer's field order under its omitempty rules, trailing
// newline included. Without a writer the whole document stays in buf.
func (e *answerEncoder) appendJSON(a *QueryAnswer) {
	e.buf = append(e.buf, `{"output":`...)
	e.string(a.Output)
	if a.Exists != nil {
		e.buf = append(e.buf, `,"exists":`...)
		e.buf = strconv.AppendBool(e.buf, *a.Exists)
	}
	if a.Count != nil {
		e.buf = append(e.buf, `,"count":`...)
		e.buf = strconv.AppendInt(e.buf, int64(*a.Count), 10)
	}
	if len(a.Pairs) > 0 {
		e.buf = append(e.buf, `,"pairs":[`...)
		for k, pr := range a.Pairs {
			if k > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"from":`...)
			e.string(pr.From)
			e.buf = append(e.buf, `,"to":`...)
			e.string(pr.To)
			e.buf = append(e.buf, '}')
			if e.spill(); e.err != nil {
				return
			}
		}
		e.buf = append(e.buf, ']')
	}
	if len(a.Paths) > 0 {
		e.buf = append(e.buf, `,"paths":[`...)
		for k, path := range a.Paths {
			if k > 0 {
				e.buf = append(e.buf, ',')
			}
			e.path(path)
			if e.spill(); e.err != nil {
				return
			}
		}
		e.buf = append(e.buf, ']')
	}
	if a.Truncated {
		e.buf = append(e.buf, `,"truncated":true`...)
	}
	e.buf = append(e.buf, `,"explain":`...)
	e.value(&a.Explain)
	e.buf = append(e.buf, `,"stats":`...)
	e.value(&a.Stats)
	e.buf = append(e.buf, "}\n"...)
}

// path appends one witness path; nil encodes as null, as encoding/json
// does.
func (e *answerEncoder) path(path []PathStep) {
	if path == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for x, st := range path {
		if x > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"from":`...)
		e.string(st.From)
		e.buf = append(e.buf, `,"label":`...)
		e.string(st.Label)
		e.buf = append(e.buf, `,"to":`...)
		e.string(st.To)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ']')
}

// string appends s as a JSON string. A plain string is appended raw;
// anything else goes through encoding/json, which escapes quotes,
// backslashes, control bytes, U+2028/U+2029 and invalid UTF-8.
func (e *answerEncoder) string(s string) {
	if !plainJSON(s) {
		e.value(s)
		return
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// Byte-lane masks of the eight-bytes-at-a-time test in plainJSON.
const (
	lanesLow  = 0x0101010101010101
	lanesHigh = 0x8080808080808080
)

// plainJSON reports whether s is printable ASCII (0x20–0x7f) without '"'
// or '\\': exactly the strings encoding/json writes verbatim with HTML
// escaping off. It tests eight bytes a step: a lane's high bit ends up set
// when its byte is ≥ 0x80, below 0x20 (the subtraction wraps), or equal to
// '"' or '\\' (the XOR zeroes it and the subtraction wraps). A borrow only
// ever leaves a lane that is itself flagged, so no plain string is
// rejected.
func plainJSON(s string) bool {
	for ; len(s) >= 8; s = s[8:] {
		w := s[:8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		q, b := x^(lanesLow*'"'), x^(lanesLow*'\\')
		if (x|(x-lanesLow*0x20)|(q-lanesLow)|(b-lanesLow))&lanesHigh != 0 {
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// value appends v as encoding/json encodes it with HTML escaping off,
// without the Encoder's trailing newline.
func (e *answerEncoder) value(v any) {
	if e.std == nil {
		e.std = json.NewEncoder(e)
		e.std.SetEscapeHTML(false)
	}
	if err := e.std.Encode(v); err != nil {
		// Unreachable for the answer's types, which hold no channels,
		// funcs or non-finite floats; stop writing rather than send a
		// malformed document.
		e.err = err
		return
	}
	e.buf = e.buf[:len(e.buf)-1]
}

// spill hands the buffer to the writer once it passes answerFlushBytes.
func (e *answerEncoder) spill() {
	if e.w != nil && len(e.buf) >= answerFlushBytes {
		e.flush()
	}
}

// flush writes the buffer out, unless an earlier write failed, and empties
// it.
func (e *answerEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}
