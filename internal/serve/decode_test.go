package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"roarray/internal/testbed"
)

// decodeWire decodes one request body into v (a zero *Request or
// *TrackRequest) over fresh slabs; see wireSlabs.decode.
func decodeWire(b []byte, v any) error {
	return new(wireSlabs).decode(b, v)
}

// scanWire is wireSlabs.scan over fresh slabs.
func scanWire(b []byte, v any) bool {
	return new(wireSlabs).scan(b, v)
}

// decodeBoth decodes b with decodeWire and with encoding/json's Decoder (the
// handlers' reference semantics) and fails unless they agree: the same error
// text, or no error and the same value down to every float64's bits, so -0
// and 0 differ.
func decodeBoth[T any](t testing.TB, b []byte) (T, error) {
	t.Helper()
	var got, want T
	gotErr := decodeWire(b, &got)
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("decodeWire error %v, encoding/json error %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodeWire error %q, encoding/json error %q", gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want) ||
		!slices.Equal(floatBits(nil, reflect.ValueOf(got)), floatBits(nil, reflect.ValueOf(want))):
		t.Fatalf("decodeWire = %+v\nencoding/json = %+v", got, want)
	}
	return got, gotErr
}

// floatBits appends the bits of every float64 reachable from v, in field
// and index order.
func floatBits(dst []uint64, v reflect.Value) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		dst = append(dst, math.Float64bits(v.Float()))
	case reflect.Struct:
		for i := range v.NumField() {
			dst = floatBits(dst, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			dst = floatBits(dst, v.Index(i))
		}
	}
	return dst
}

// wireBase is a small valid request body; wireCases vary it once each.
const wireBase = `{"links":[{"x":1,"packets":[{"data":[[[1,0]]]}]},{"packets":[{"data":[[[0,1]]]}]}],` +
	`"room":{"minX":0,"minY":0,"maxX":2,"maxY":2},"gridStepMeters":0.5}`

// wireCases holds one body per decode path the scanner hands to
// encoding/json, plus the canonical deviations it takes itself. fast and
// fastTrack say whether the scanner accepts the body as a Request and as a
// TrackRequest.
var wireCases = []struct {
	name            string
	body            string
	fast, fastTrack bool
}{
	{"canonical", wireBase, true, true},
	{"whitespace", " \n{ \"links\" : [ ] ,\t\"room\":{\"maxX\" : 1 , \"maxY\":1}\r}", true, true},
	{"case-folded key", strings.Replace(wireBase, `"x"`, `"X"`, 1), false, false},
	{"duplicate key", strings.Replace(wireBase, `0.5}`, `0.5,"gridStepMeters":0.25}`, 1), false, false},
	{"duplicate links", strings.Replace(wireBase, `{"links"`, `{"links":[{"y":2}],"links"`, 1), false, false},
	{"null links", `{"links":null,"room":{"maxX":1,"maxY":1}}`, false, false},
	{"unknown key", strings.Replace(wireBase, `{"links"`, `{"extra":[1,{"a":null}],"links"`, 1), false, false},
	{"venue id", strings.Replace(wireBase, `{`, `{"venueId":"A",`, 1), true, true},
	{"escaped venue id", strings.Replace(wireBase, `{`, `{"venueId":"\u0041",`, 1), false, false},
	{"non-ASCII venue id", strings.Replace(wireBase, `{`, `{"venueId":"café",`, 1), false, false},
	{"short pair", strings.Replace(wireBase, `[1,0]`, `[1]`, 1), false, false},
	{"long pair", strings.Replace(wireBase, `[1,0]`, `[1,2,3]`, 1), false, false},
	{"out-of-range number", strings.Replace(wireBase, `0.5`, `1e400`, 1), false, false},
	{"negative zero", strings.Replace(wireBase, `0.5`, `-0`, 1), true, true},
	{"leading zero", strings.Replace(wireBase, `0.5`, `00.5`, 1), false, false},
	{"track fields", strings.Replace(wireBase, `{`, `{"sessionId":"w-1","seq":1,"tSeconds":0.5,`, 1), false, true},
	{"fractional seq", strings.Replace(wireBase, `{`, `{"seq":1.0,`, 1), false, false},
	{"seq overflow", strings.Replace(wireBase, `{`, `{"seq":9223372036854775808,`, 1), false, false},
	{"trailing bytes", wireBase + `{"links":x`, true, true},
	{"truncated", wireBase[:len(wireBase)-1], false, false},
	{"trailing comma", strings.Replace(wireBase, `0.5}`, `0.5,}`, 1), false, false},
	{"NUL before number", strings.Replace(wireBase, `0.5`, "\x000.5", 1), false, false},
	{"empty", ``, false, false},
	{"not an object", `[1,2,3]`, false, false},
}

// TestDecodeWireMatchesEncodingJSON pins the fast path's coverage and its
// fallback: every case decodes to what encoding/json gives, and the
// scanner itself accepts exactly the cases marked fast.
func TestDecodeWireMatchesEncodingJSON(t *testing.T) {
	for _, tc := range wireCases {
		t.Run(tc.name, func(t *testing.T) {
			b := []byte(tc.body)
			decodeBoth[Request](t, b)
			decodeBoth[TrackRequest](t, b)
			if got := scanWire(b, new(Request)); got != tc.fast {
				t.Errorf("scanner accepts as Request = %v, want %v", got, tc.fast)
			}
			if got := scanWire(b, new(TrackRequest)); got != tc.fastTrack {
				t.Errorf("scanner accepts as TrackRequest = %v, want %v", got, tc.fastTrack)
			}
		})
	}
}

// TestScannerFloatMatchesParseFloat checks the scanner's float conversion,
// including its exact-division shortcut, against strconv.ParseFloat bit for
// bit: random doubles as json.Marshal prints them, and random decimal
// strings of up to 20 digits around the shortcut's 2^53 and 19-digit edges.
func TestScannerFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(tok string) {
		want, err := strconv.ParseFloat(tok, 64)
		var got float64
		s := wireScanner{b: []byte(tok)}
		if ok := s.float(&got); ok != (err == nil) || s.i != len(tok) ||
			math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: scanner %v (ok %v, consumed %d), ParseFloat %v (%v)", tok, got, ok, s.i, want, err)
		}
	}
	for range 100000 {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		check(string(mustMarshal(t, v)))
		check(string(mustMarshal(t, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(12)-6)))))
		digits := make([]byte, 1+rng.Intn(20))
		for i := range digits {
			digits[i] = byte('0' + rng.Intn(10))
		}
		if digits[0] == '0' {
			digits = digits[:1]
		}
		tok := string(digits)
		if p := rng.Intn(len(digits) + 1); p > 0 && p < len(digits) && digits[0] != '0' {
			tok = tok[:p] + "." + tok[p:]
		}
		if rng.Intn(2) == 0 {
			tok = "0." + strings.Repeat("0", rng.Intn(4)) + string(digits)
		}
		if rng.Intn(2) == 0 {
			tok = "-" + tok
		}
		check(tok)
	}
	for _, tok := range []string{"9007199254740991", "9007199254740992", "9007199254740993",
		"0.9007199254740993", "1234567890123456789", "12345678901234567890", "-0", "-0.0", "0.0000000000000000001"} {
		check(tok)
	}
}

// smokeBodies marshals n smoke-preset requests the way roaload and
// perfbench put them on the wire.
func smokeBodies(t testing.TB, n int) ([][]byte, []*Request) {
	t.Helper()
	ps, err := LookupPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	reqs, _, err := ps.Deployment.BatchRequests(n, ps.Packets, testbed.ScenarioConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, n)
	wires := make([]*Request, n)
	for i, req := range reqs {
		wires[i] = FromCore(req)
		bodies[i] = mustMarshal(t, wires[i])
	}
	return bodies, wires
}

// TestDecodeWireCanonicalBodies checks that the bodies real clients send
// take the fast path, for both endpoints, and decode bit-identically to
// encoding/json.
func TestDecodeWireCanonicalBodies(t *testing.T) {
	bodies, wires := smokeBodies(t, 4)
	for i, b := range bodies {
		if !scanWire(b, new(Request)) {
			t.Fatalf("request %d: scanner declined a canonical body", i)
		}
		decodeBoth[Request](t, b)
		tb := mustMarshal(t, &TrackRequest{Request: *wires[i], SessionID: "walker-1", Seq: int64(i), TSeconds: 0.5 * float64(i)})
		if !scanWire(tb, new(TrackRequest)) {
			t.Fatalf("track request %d: scanner declined a canonical body", i)
		}
		decodeBoth[TrackRequest](t, tb)
	}
}

// TestDecodeWireDoesNotAliasBody overwrites the body after decoding: the
// decoded strings must not change with it (the handlers recycle the buffer).
func TestDecodeWireDoesNotAliasBody(t *testing.T) {
	b := []byte(`{"venueId":"hall-a","sessionId":"walker-1"}`)
	var req TrackRequest
	if err := decodeWire(b, &req); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 'z'
	}
	if req.VenueID != "hall-a" || req.SessionID != "walker-1" {
		t.Fatalf("decoded ids changed with the body: %q %q", req.VenueID, req.SessionID)
	}
}

// spaceReader is an endless run of JSON whitespace.
type spaceReader struct{}

func (spaceReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestServeBodyLimit pins maxBodyBytes on both endpoints: a body that is
// still inside an unfinished value at the limit answers 400 with the
// MaxBytesReader error.
func TestServeBodyLimit(t *testing.T) {
	srv, err := New(Config{Engine: serveTestEngine(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	for _, path := range []string{"/v1/localize", "/v1/track"} {
		body := io.MultiReader(strings.NewReader(`{"links":[`), io.LimitReader(spaceReader{}, maxBodyBytes))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		const want = "decode request: http: request body too large"
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: status %d body %q, want 400 %q", path, rec.Code, rec.Body.String(), want)
		}
	}
}

// TestPaperBodyUnderLimit checks maxBodyBytes against the largest preset:
// "paper" request and track bodies, marshalled as clients send them, stay
// under a tenth of the limit.
func TestPaperBodyUnderLimit(t *testing.T) {
	ps, err := LookupPreset("paper")
	if err != nil {
		t.Fatal(err)
	}
	reqs, _, err := ps.Deployment.BatchRequests(3, ps.Packets, testbed.ScenarioConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		wire := FromCore(req)
		track := &TrackRequest{Request: *wire, SessionID: "walker-1", Seq: int64(i), TSeconds: 0.5}
		for _, body := range [][]byte{mustMarshal(t, wire), mustMarshal(t, track)} {
			if len(body) > maxBodyBytes/10 {
				t.Errorf("request %d: %d-byte paper body exceeds a tenth of maxBodyBytes (%d)", i, len(body), maxBodyBytes)
			}
		}
	}
}

// TestToCoreNonFiniteNamesField checks that ToCore's non-finite rejection
// names the offending field and value.
func TestToCoreNonFiniteNamesField(t *testing.T) {
	good := func() *Request { return FromCore(serveTestRequests(t, 1, 1, 13)[0]) }
	cases := []struct {
		set  func(*Request, float64)
		want string
	}{
		{func(r *Request, v float64) { r.Room.MinX = v }, "room.minX"},
		{func(r *Request, v float64) { r.Room.MinY = v }, "room.minY"},
		{func(r *Request, v float64) { r.Room.MaxX = v }, "room.maxX"},
		{func(r *Request, v float64) { r.Room.MaxY = v }, "room.maxY"},
		{func(r *Request, v float64) { r.GridStepMeters = v }, "gridStepMeters"},
		{func(r *Request, v float64) { r.DeadlineMillis = v }, "deadlineMillis"},
	}
	for _, tc := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := good()
			tc.set(r, v)
			_, err := r.ToCore()
			want := fmt.Sprintf("serve: non-finite %s %v", tc.want, v)
			if err == nil || err.Error() != want {
				t.Errorf("%s = %v: error %v, want %q", tc.want, v, err, want)
			}
		}
	}
}

// BenchmarkDecodeRequest decodes smoke-preset bodies through the handlers'
// decoder, reusing one set of slabs as a pooled request arena does;
// BenchmarkDecodeRequestJSON is the encoding/json reference the handlers
// used before.
func BenchmarkDecodeRequest(b *testing.B) {
	sl := new(wireSlabs)
	benchDecode(b, func(body []byte, req *Request) error { return sl.decode(body, req) })
}

func BenchmarkDecodeRequestJSON(b *testing.B) {
	benchDecode(b, func(body []byte, req *Request) error {
		return json.NewDecoder(bytes.NewReader(body)).Decode(req)
	})
}

func benchDecode(b *testing.B, decode func([]byte, *Request) error) {
	bodies, _ := smokeBodies(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req Request
		if err := decode(bodies[i%len(bodies)], &req); err != nil {
			b.Fatal(err)
		}
	}
}
