package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

// unmarshalVenueID is the proxy's routing peek as encoding/json defines it:
// the VenueID json.Unmarshal fills into a venuePeek, error ignored.
func unmarshalVenueID(body []byte) string {
	var peek venuePeek
	json.Unmarshal(body, &peek) //nolint:errcheck // routing ignores the error
	return peek.VenueID
}

// peekCases are bodies whose routing key the scanner must read as
// encoding/json does: canonical bodies it takes itself, and every form it
// leaves to json.Unmarshal.
var peekCases = []string{
	`{"venueId":"hall-a","links":[],"room":{"minX":0,"minY":0,"maxX":1,"maxY":1}}`,
	`{"links":[{"packets":[{"data":[[[1,0],[0.5,-2e-3]]]}]}],"venueId":"b"}`,
	`  {"venueId" : "spaced" }  `,
	`{"venueId":""}`,
	`{}`,
	`{"links":[]}`,
	`{"VenueID":"folded"}`,                   // case-folded key
	`{"venueid":"lower"}`,                    // case-folded key
	`{"venueId":"first","venueId":"second"}`, // duplicate: last wins
	`{"venueId":"first","VENUEID":"second"}`, // duplicate up to case
	`{"venueId":"esc\u0061ped"}`,             // escape
	`{"venueId":"caf\u00e9"}`,                // escaped non-ASCII
	"{\"venueId\":\"caf\xc3\xa9\"}",          // raw non-ASCII
	"{\"venueId\":\"bad\xff\"}",              // invalid UTF-8
	`{"venueId":7}`,                          // non-string value
	`{"venueId":null}`,                       // null
	`{"venueId":"ok","x":true}`,              // literal elsewhere
	`{"venueId":"ok","x":[1,2,{"y":null}]}`,  // nested literal
	`{"venueId":"ok","x":01}`,                // invalid number
	`{"venueId":"ok","x":1e400}`,             // out-of-range number
	`{"venueId":"ok"} trailing`,              // trailing bytes
	`{"venueId":"ok"}{}`,                     // second value
	`{"venueId":"ok"`,                        // truncated
	`["venueId","ok"]`,                       // not an object
	`"venueId"`,                              // not an object
	``,                                       // empty body
	`{"venueId":"ok","deep":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`,
	`{"venueId":"ok","deep":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
}

// TestPeekVenueIDMatchesUnmarshal: the proxy routes every peekCases body,
// and the canonical smoke bodies with a venue id, on the id json.Unmarshal
// reads from it; the canonical bodies take the scanner.
func TestPeekVenueIDMatchesUnmarshal(t *testing.T) {
	for _, body := range peekCases {
		if got, want := peekVenueID([]byte(body)), unmarshalVenueID([]byte(body)); got != want {
			t.Errorf("%.60q: routes on %q, json.Unmarshal reads %q", body, got, want)
		}
	}
	for _, body := range venueBodies(t, 4) {
		s := wireScanner{b: body}
		if _, ok := s.venueID(); !ok {
			t.Errorf("canonical body left to json.Unmarshal: %.80s", body)
		}
		if got, want := peekVenueID(body), unmarshalVenueID(body); got != want || got == "" {
			t.Errorf("canonical body routes on %q, json.Unmarshal reads %q", got, want)
		}
	}
}

// venueBodies returns n canonical smoke request bodies tagged with venue
// ids, the bodies a proxy routes.
func venueBodies(t testing.TB, n int) [][]byte {
	_, wires := smokeBodies(t, n)
	bodies := make([][]byte, n)
	for i, w := range wires {
		w.VenueID = "venue-" + string(rune('a'+i%26))
		bodies[i] = mustMarshal(t, w)
	}
	return bodies
}

// FuzzVenuePeek checks the proxy's routing peek differentially against
// json.Unmarshal into a venuePeek: whatever the bytes, both must name the
// same venue.
func FuzzVenuePeek(f *testing.F) {
	for _, body := range peekCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, want := peekVenueID(body), unmarshalVenueID(body); got != want {
			t.Fatalf("routes on %q, json.Unmarshal reads %q", got, want)
		}
	})
}

// BenchmarkPeekVenueID measures the proxy's routing peek over canonical
// smoke bodies; BenchmarkPeekVenueIDJSON the json.Unmarshal peek it
// replaced.
func BenchmarkPeekVenueID(b *testing.B) {
	benchPeek(b, peekVenueID)
}

func BenchmarkPeekVenueIDJSON(b *testing.B) {
	benchPeek(b, unmarshalVenueID)
}

func benchPeek(b *testing.B, peek func([]byte) string) {
	bodies := venueBodies(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if peek(bodies[i%len(bodies)]) == "" {
			b.Fatal("no venue id")
		}
	}
}
