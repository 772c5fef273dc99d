package trace

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Events are encoded to JSON once, when they are added, and kept as
// bytes in append-only chunks: an observed cluster run adds hundreds of
// thousands of counter points, and a map of boxed args per event plus
// reflective marshalling cost far more host time than the simulation
// that produced them. WriteJSON then sorts small references to those
// bytes and streams them out.
//
// The bytes are exactly what encoding/json's Encoder.Encode produced for
// the struct-tagged event records this package used to marshal, so every
// trace is byte-identical to that rendering (pinned by the tests):
//
//   - fields in the record order name, cat, ph, ts, dur, pid, tid, id,
//     args, with dur, id and args omitted when zero or empty;
//   - arg keys ascending, as the map encoder sorted them (callers add
//     args in key order; eventStore panics otherwise);
//   - HTML-safe string escaping and ES6-style float formatting, ported
//     from encoding/json (appendString, appendFloat).

// chunkSize is the byte capacity of one event chunk. Chunks are never
// reallocated, so encoding a long run copies each event once instead of
// re-copying a doubling buffer.
const chunkSize = 1 << 20

// eventHead is the fixed part of one event after its name.
type eventHead struct {
	cat, ph  string
	ts, dur  float64 // µs; dur 0 is omitted
	pid, tid int
	id       string // async correlation id; "" is omitted
}

// eventRef is the sort key of one event: its timestamp and insertion
// position, so ties keep insertion order. It is kept small because
// WriteJSON sorts one per event; locs[seq] locates the event's bytes.
type eventRef struct {
	ts  float64
	seq uint32
}

// eventLoc is where one encoded event sits in the chunk store.
type eventLoc struct{ chunk, off, n uint32 }

// eventStore encodes events one at a time into a reused buffer and
// appends each finished event to the chunk store. The building methods
// chain: begin(name, h) [arg...] add().
type eventStore struct {
	cur    []byte  // the event being encoded
	curTS  float64 // its timestamp
	inArgs bool    // cur has an open args object
	key    string  // cur's last arg key
	// err is the first non-finite float encoded; encoding/json refuses
	// NaN and ±Inf, so WriteJSON reports it and writes nothing.
	err    error
	chunks [][]byte
	refs   []eventRef
	locs   []eventLoc // by insertion position
}

// begin starts an event: its name and fixed fields.
func (s *eventStore) begin(name string, h eventHead) *eventStore {
	s.inArgs, s.key = false, ""
	s.cur = appendString(append(s.cur[:0], `{"name":`...), name)
	s.cur = append(s.cur, `,"cat":`...)
	s.cur = appendString(s.cur, h.cat)
	s.cur = append(s.cur, `,"ph":`...)
	s.cur = appendString(s.cur, h.ph)
	s.cur = append(s.cur, `,"ts":`...)
	s.float(h.ts)
	if h.dur != 0 {
		s.cur = append(s.cur, `,"dur":`...)
		s.float(h.dur)
	}
	s.cur = append(s.cur, `,"pid":`...)
	s.cur = strconv.AppendInt(s.cur, int64(h.pid), 10)
	s.cur = append(s.cur, `,"tid":`...)
	s.cur = strconv.AppendInt(s.cur, int64(h.tid), 10)
	if h.id != "" {
		s.cur = append(s.cur, `,"id":`...)
		s.cur = appendString(s.cur, h.id)
	}
	s.curTS = h.ts
	return s
}

// arg writes the next arg's key. Keys must ascend: encoding/json sorted
// the args map, and an out-of-order key is a bug in the caller.
func (s *eventStore) arg(key string) {
	if s.inArgs {
		if key <= s.key {
			panic("trace: arg " + strconv.Quote(key) + " after " + strconv.Quote(s.key))
		}
		s.cur = append(s.cur, ',')
	} else {
		s.cur = append(s.cur, `,"args":{`...)
		s.inArgs = true
	}
	s.key = key
	s.cur = appendString(s.cur, key)
	s.cur = append(s.cur, ':')
}

// argStr, argInt, argUint and argFloat write one arg each, encoded as
// encoding/json encodes a string, signed, unsigned or float64 value.
func (s *eventStore) argStr(key, v string) *eventStore {
	s.arg(key)
	s.cur = appendString(s.cur, v)
	return s
}

func (s *eventStore) argInt(key string, v int64) *eventStore {
	s.arg(key)
	s.cur = strconv.AppendInt(s.cur, v, 10)
	return s
}

func (s *eventStore) argUint(key string, v uint64) *eventStore {
	s.arg(key)
	s.cur = strconv.AppendUint(s.cur, v, 10)
	return s
}

func (s *eventStore) argFloat(key string, v float64) *eventStore {
	s.arg(key)
	s.float(v)
	return s
}

// float appends v, recording the first value JSON cannot represent.
func (s *eventStore) float(v float64) {
	var ok bool
	if s.cur, ok = appendFloat(s.cur, v); !ok && s.err == nil {
		s.err = fmt.Errorf("trace: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
}

// add closes the event and appends it to the store.
func (s *eventStore) add() {
	if s.inArgs {
		s.cur = append(s.cur, '}')
	}
	s.cur = append(s.cur, '}')
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k])+len(s.cur) > cap(s.chunks[k]) {
		s.chunks = append(s.chunks, make([]byte, 0, max(chunkSize, len(s.cur))))
		k++
	}
	s.refs = append(s.refs, eventRef{ts: s.curTS, seq: uint32(len(s.refs))})
	s.locs = append(s.locs, eventLoc{chunk: uint32(k), off: uint32(len(s.chunks[k])), n: uint32(len(s.cur))})
	s.chunks[k] = append(s.chunks[k], s.cur...)
}

// bytes returns the encoded event r refers to.
func (s *eventStore) bytes(r eventRef) []byte {
	l := s.locs[r.seq]
	return s.chunks[l.chunk][l.off : l.off+l.n]
}

// compareRefs orders events by timestamp, ties by insertion. The key is
// unique, so an unstable sort reproduces a stable sort by timestamp.
// Timestamps are finite: a NaN would have failed WriteJSON before it
// sorts.
func compareRefs(a, b eventRef) int {
	switch {
	case a.ts < b.ts:
		return -1
	case a.ts > b.ts:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// representation, in 'f' notation unless |f| < 1e-6 or |f| >= 1e21,
// which use 'e' notation with a one-digit negative exponent written
// unpadded (e-7, not e-07). ok is false for NaN and ±Inf.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// jsonSafe marks the ASCII bytes encoding/json copies verbatim in
// HTML-safe mode: everything from space up except ", \, <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends v as a JSON string with encoding/json's
// escaping: \" and \\, short escapes for \b \f \n \r \t, \u00XX for
// other control bytes and for < > &, \u2028 and \u2029 for the
// JavaScript line separators, and \ufffd for each byte of invalid UTF-8.
func appendString(b []byte, v string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(v); {
		if c := v[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, v[start:i]...)
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(v[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, v[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, v[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, v[start:]...)
	return append(b, '"')
}
