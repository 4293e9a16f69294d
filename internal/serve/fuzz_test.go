package serve

import (
	"math"
	"strings"
	"testing"

	"roarray/internal/obs"
)

// FuzzRequestDecode drives arbitrary bytes through the wire-format decode
// path the HTTP handler trusts: decodeWire into Request, then the ToCore
// validation gate. decodeWire must agree with encoding/json's Decoder (the
// handler's reference semantics): the same value down to the float64 bits,
// or the same error. Whatever the bytes, nothing may panic, and any request
// that passes ToCore must survive a FromCore/ToCore round trip (the
// representation the load generators rely on).
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"links":[]}`))
	f.Add([]byte(`{"links":[{"x":1}],"room":{"maxX":1,"maxY":1}}`))
	f.Add([]byte(`{"links":[{"packets":[{"data":[[[1,0]]]}]},{"packets":[{"data":[[[0,1]]]}]}],` +
		`"room":{"minX":0,"minY":0,"maxX":2,"maxY":2},"gridStepMeters":0.5}`))
	f.Add([]byte(`{"links":[{"packets":[{"data":[[[1,0],[0,1]],[[1,1]]]}]},{"packets":[{"data":[[[1,0]]]}]}],` +
		`"room":{"maxX":1,"maxY":1}}`)) // ragged row
	f.Add([]byte(`{"links":null,"room":{"minX":1e308,"maxX":-1e308}}`))
	f.Add([]byte(`[1,2,3]`))
	addWireCases(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeBoth[Request](t, data)
		if err != nil {
			return
		}
		// These must never panic, whatever decoded.
		req.Dims()
		req.Deadline()
		cr, err := req.ToCore()
		if err != nil {
			return
		}
		if cr == nil {
			t.Fatal("ToCore returned nil, nil")
		}
		if len(cr.Links) < 2 {
			t.Fatalf("ToCore accepted %d links, contract requires >= 2", len(cr.Links))
		}
		// A validated request must round-trip through the wire form.
		back, err := FromCore(cr).ToCore()
		if err != nil {
			t.Fatalf("round trip rejected a request ToCore accepted: %v", err)
		}
		if len(back.Links) != len(cr.Links) {
			t.Fatalf("round trip changed link count: %d -> %d", len(cr.Links), len(back.Links))
		}
	})
}

// FuzzTrackRequestDecode drives arbitrary bytes through the /v1/track decode
// path: decodeWire into TrackRequest (embedded Request plus session fields),
// checked against encoding/json's Decoder as in FuzzRequestDecode, then
// ValidateTrack, obs.SanitizeRequestID on the client-supplied session id,
// then ToCore. None of it may panic, validated tracking fields
// must be finite, and a sanitized session id must be idempotent under
// re-sanitization (the handler echoes it back and honors it next epoch).
func FuzzTrackRequestDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"sessionId":"walker-1","seq":1,"tSeconds":0}`))
	f.Add([]byte("{\"sessionId\":\"a b\tc\u0000d\",\"seq\":9007199254740993,\"tSeconds\":-1.5}"))
	f.Add([]byte(`{"seq":-3,"tSeconds":1e308,"links":[]}`))
	f.Add([]byte(`{"sessionId":"` + strings.Repeat("s", 200) + `","seq":2,"tSeconds":0.5,` +
		`"links":[{"packets":[{"data":[[[1,0]]]}]},{"packets":[{"data":[[[0,1]]]}]}],` +
		`"room":{"minX":0,"minY":0,"maxX":2,"maxY":2},"gridStepMeters":0.5}`))
	f.Add([]byte(`{"sessionId":123}`))
	addWireCases(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		wreq, err := decodeBoth[TrackRequest](t, data)
		if err != nil {
			return
		}
		sid := obs.SanitizeRequestID(wreq.SessionID)
		if again := obs.SanitizeRequestID(sid); again != sid {
			t.Fatalf("session id sanitization not idempotent: %q -> %q", sid, again)
		}
		if len(sid) > obs.MaxRequestIDLen {
			t.Fatalf("sanitized session id too long: %d bytes", len(sid))
		}
		if err := wreq.ValidateTrack(); err != nil {
			return
		}
		if math.IsNaN(wreq.TSeconds) || math.IsInf(wreq.TSeconds, 0) || wreq.Seq < 0 {
			t.Fatalf("ValidateTrack accepted tSeconds=%v seq=%d", wreq.TSeconds, wreq.Seq)
		}
		// The embedded Request path must hold the same no-panic contract.
		wreq.Dims()
		wreq.Deadline()
		if _, err := wreq.ToCore(); err != nil {
			return
		}
	})
}

// addWireCases seeds a decode fuzzer with wireCases: one body per path the
// scanner hands to encoding/json, and the canonical deviations it takes.
func addWireCases(f *testing.F) {
	for _, tc := range wireCases {
		f.Add([]byte(tc.body))
	}
}
