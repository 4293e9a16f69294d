package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// pooledBodyBytes caps both the bodies the pooled read takes in whole and the
// arenas the pool keeps. A CSI burst body is a few KB to a few hundred KB;
// a larger one streams through encoding/json, so a body near maxBodyBytes
// never stays resident in the pool.
const pooledBodyBytes = 1 << 20

// decodeBody decodes the JSON body of POST /v1/localize or /v1/track into v
// (the arena's *Request or *TrackRequest, zero on entry), reading the body
// into a.body and carving the decoded slices from a.wire. Its result and
// error are exactly those of
// json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v):
// the same value, the same rejection and message, and the same indifference
// to bytes after the first JSON value.
func (a *arena) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := &a.body
	buf.Reset()
	_, err := buf.ReadFrom(io.LimitReader(body, pooledBodyBytes+1))
	if err == nil && buf.Len() <= pooledBodyBytes {
		return a.wire.decode(buf.Bytes(), v)
	}
	// A failed read (MaxBytesReader's error is sticky) or a body too large
	// for the pool: encoding/json reads the bytes taken so far, then the
	// rest of the stream, just as it would have read the body directly.
	return json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), body)).Decode(v)
}

// wireSlabs is the storage a decoded request's slices are carved from: its
// links, their packets, the packets' antenna rows and the rows' [re, im]
// values. Each level has its own slab, and the elements of one array are
// contiguous in it, so a request reuses the slabs of the one before.
type wireSlabs struct {
	links   []Link
	packets []Packet
	rows    [][][2]float64
	vals    [][2]float64
}

// carve returns slab[start:] with its capacity clipped, non-nil even when
// empty (encoding/json decodes [] to an empty, non-nil slice).
func carve[T any](slab []T, start int) []T {
	if slab == nil {
		return []T{}
	}
	return slab[start:len(slab):len(slab)]
}

// decode decodes one request body into v (a zero *Request or *TrackRequest)
// with the result and error of json.NewDecoder(bytes.NewReader(b)).Decode(v).
// A body in the canonical form json.Marshal emits for the wire types is
// scanned without reflection into slices carved from sl; anything the
// scanner does not accept (an unknown, case-folded or repeated key, null, an
// escape or non-ASCII byte in a string, a pair that is not two numbers, an
// out-of-range number, a syntax error) is decoded by encoding/json from the
// same bytes. The decoded value never aliases b.
func (sl *wireSlabs) decode(b []byte, v any) error {
	if sl.scan(b, v) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// scan fills v (a zero *Request or *TrackRequest) from a canonical body,
// reusing sl's slabs, and reports whether it did; on false, v is zero
// again.
func (sl *wireSlabs) scan(b []byte, v any) bool {
	sl.links, sl.packets, sl.rows, sl.vals = sl.links[:0], sl.packets[:0], sl.rows[:0], sl.vals[:0]
	s := wireScanner{b: b, slab: sl}
	switch v := v.(type) {
	case *Request:
		if s.request(v, nil) {
			return true
		}
		*v = Request{}
	case *TrackRequest:
		if s.request(&v.Request, v) {
			return true
		}
		*v = TrackRequest{}
	}
	return false
}

// wireScanner is the reflection-free reader of canonical request bodies.
// Every method reports false on input it does not accept; the caller then
// discards the partly filled value.
type wireScanner struct {
	b []byte
	i int
	// slab holds the storage scanned arrays are carved from (nil when
	// only scanning for the proxy's routing key).
	slab *wireSlabs
}

// request scans a whole Request body; with t non-nil it also accepts the
// /v1/track session fields into t. Bytes after the object are not read.
func (s *wireScanner) request(r *Request, t *TrackRequest) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "venueId":
			return 1 << 0, s.str(&r.VenueID)
		case "links":
			return 1 << 1, s.links(&r.Links)
		case "room":
			return 1 << 2, s.room(&r.Room)
		case "gridStepMeters":
			return 1 << 3, s.float(&r.GridStepMeters)
		case "deadlineMillis":
			return 1 << 4, s.float(&r.DeadlineMillis)
		}
		if t == nil {
			return 0, false
		}
		switch string(key) {
		case "sessionId":
			return 1 << 5, s.str(&t.SessionID)
		case "seq":
			return 1 << 6, s.int(&t.Seq)
		case "tSeconds":
			return 1 << 7, s.float(&t.TSeconds)
		}
		return 0, false
	})
}

func (s *wireScanner) room(r *Rect) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "minX":
			return 1 << 0, s.float(&r.MinX)
		case "minY":
			return 1 << 1, s.float(&r.MinY)
		case "maxX":
			return 1 << 2, s.float(&r.MaxX)
		case "maxY":
			return 1 << 3, s.float(&r.MaxY)
		}
		return 0, false
	})
}

func (s *wireScanner) links(dst *[]Link) bool {
	sl := s.slab
	start := len(sl.links)
	ok := s.array(func() bool {
		sl.links = append(sl.links, Link{})
		return s.link(&sl.links[len(sl.links)-1])
	})
	*dst = carve(sl.links, start)
	return ok
}

func (s *wireScanner) link(l *Link) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "x":
			return 1 << 0, s.float(&l.X)
		case "y":
			return 1 << 1, s.float(&l.Y)
		case "axisDeg":
			return 1 << 2, s.float(&l.AxisDeg)
		case "rssiDbm":
			return 1 << 3, s.float(&l.RSSIdBm)
		case "packets":
			return 1 << 4, s.packets(&l.Packets)
		}
		return 0, false
	})
}

func (s *wireScanner) packets(dst *[]Packet) bool {
	sl := s.slab
	start := len(sl.packets)
	ok := s.array(func() bool {
		sl.packets = append(sl.packets, Packet{})
		p := &sl.packets[len(sl.packets)-1]
		return s.object(func(key []byte) (uint, bool) {
			if string(key) != "data" {
				return 0, false
			}
			return 1, s.data(&p.Data)
		})
	})
	*dst = carve(sl.packets, start)
	return ok
}

// data scans one packet's [antenna][subcarrier][re, im] matrix.
func (s *wireScanner) data(dst *[][][2]float64) bool {
	sl := s.slab
	start := len(sl.rows)
	ok := s.array(func() bool {
		vstart := len(sl.vals)
		ok := s.array(func() bool {
			var v [2]float64
			ok := s.consume('[') && s.float(&v[0]) && s.consume(',') && s.float(&v[1]) && s.consume(']')
			sl.vals = append(sl.vals, v)
			return ok
		})
		sl.rows = append(sl.rows, carve(sl.vals, vstart))
		return ok
	})
	*dst = carve(sl.rows, start)
	return ok
}

// object scans one JSON object. field scans the value of each key and
// returns the key's bit, which must be nonzero and not seen before in this
// object.
func (s *wireScanner) object(field func(key []byte) (bit uint, ok bool)) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}

// members scans one JSON object, calling member to scan the value of each
// key.
func (s *wireScanner) members(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.raw()
		if !ok || !s.consume(':') || !member(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// maxSkipDepth bounds the nesting skip walks. A canonical body nests eight
// levels deep; anything deeper is left to encoding/json, which has its own
// limit.
const maxSkipDepth = 16

// skip scans past one value without decoding it: an object, an array, a
// string of plain ASCII or a number, nested at most maxSkipDepth levels
// below depth. Literals (true, false, null) are not accepted.
func (s *wireScanner) skip(depth int) bool {
	if depth >= maxSkipDepth {
		return false
	}
	s.space()
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '{':
		return s.members(func([]byte) bool { return s.skip(depth + 1) })
	case '[':
		return s.array(func() bool { return s.skip(depth + 1) })
	case '"':
		_, ok := s.raw()
		return ok
	}
	_, ok := s.number()
	return ok
}

// venueIDKey is the routing key's JSON name.
var venueIDKey = []byte("venueId")

// venueID scans a whole body for the proxy's routing key: a top-level
// object whose "venueId", if present, is a plain string, with every other
// value skipped unparsed and nothing but whitespace after the object. It
// reports false — leaving the body to encoding/json — on anything where
// encoding/json's case-insensitive, last-wins key matching could differ from
// an exact single match: a repeated venueId, or a key that equals it only up
// to case.
func (s *wireScanner) venueID() (id []byte, ok bool) {
	seen := false
	ok = s.members(func(key []byte) bool {
		switch {
		case bytes.Equal(key, venueIDKey):
			if seen {
				return false
			}
			seen = true
			var ok bool
			id, ok = s.raw()
			return ok
		case bytes.EqualFold(key, venueIDKey):
			return false
		}
		return s.skip(1)
	})
	s.space()
	return id, ok && s.i == len(s.b)
}

// array scans one JSON array, calling elem to scan each element.
func (s *wireScanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// consume skips JSON whitespace and then the byte c.
func (s *wireScanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *wireScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// raw scans a string of ASCII with no control byte or escape and returns its
// contents, which alias b.
func (s *wireScanner) raw() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *wireScanner) str(dst *string) bool {
	v, ok := s.raw()
	*dst = string(v)
	return ok
}

// number is one token of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv accepts more
// (hex, underscores, "Inf"), so only tokens that pass the grammar may reach
// it.
type number struct {
	text []byte
	neg  bool
	// short reports no exponent and at most 19 digits; then m is the
	// digits read as one integer (below 10^19, so inside uint64) and k
	// the count of them after the point.
	short bool
	m     uint64
	k     int
}

func (s *wireScanner) number() (n number, ok bool) {
	s.space()
	b, i := s.b, s.i
	if n.neg = i < len(b) && b[i] == '-'; n.neg {
		i++
	}
	start := i
	var j int
	switch j, n.m = digits(b, i, 0); {
	case i < len(b) && b[i] == '0':
		i, n.m = i+1, 0
	case j > i:
		i = j
	default:
		return n, false
	}
	nd := i - start
	if i < len(b) && b[i] == '.' {
		if j, n.m = digits(b, i+1, n.m); j == i+1 {
			return n, false
		}
		n.k, nd, i = j-i-1, nd+j-i-1, j
	}
	n.short = nd <= 19
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j, _ = digits(b, i, 0); j == i {
			return n, false
		}
		i, n.short = j, false
	}
	n.text, s.i = b[s.i:i], i
	return n, true
}

// digits scans the ASCII digits at i in b, appending them to the decimal
// integer m (which wraps past 19 digits), and returns the index after them.
func digits(b []byte, i int, m uint64) (int, uint64) {
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d >= 10 {
			break
		}
		m = m*10 + uint64(d)
	}
	return i, m
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float scans a number into a float64 field exactly as encoding/json does,
// which is strconv.ParseFloat. When the digits m are below 2^53 and k <= 22
// of them follow the point, m and 10^k are exact float64s and IEEE
// division rounds m / 10^k correctly, as ParseFloat rounds the decimal, so
// that shortcut gives the same bits. An out-of-range token is left to
// encoding/json's error.
func (s *wireScanner) float(dst *float64) bool {
	n, ok := s.number()
	if !ok {
		return false
	}
	if n.short && n.m < 1<<53 {
		f := float64(n.m) / pow10[n.k]
		if n.neg {
			f = -f
		}
		*dst = f
		return true
	}
	v, err := strconv.ParseFloat(string(n.text), 64)
	*dst = v
	return err == nil
}

// int scans an integer token into an int64 field as encoding/json does,
// with strconv.ParseInt; a fraction, an exponent or overflow fails it and
// is left to encoding/json's error.
func (s *wireScanner) int(dst *int64) bool {
	n, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(n.text), 10, 64)
	*dst = v
	return err == nil
}
