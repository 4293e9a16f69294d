package venue

import (
	"encoding/json"
	"testing"
)

// FuzzVenueManifestDecode drives arbitrary bytes through the manifest
// decoder — the file an operator edits by hand, so the most likely place
// for malformed input to reach the serving tier. Whatever the bytes, the
// decoder must not panic; any manifest it accepts must satisfy the
// invariants the registry and the serving layer rely on (valid unique ids,
// usable geometry, an estimator config that constructs); and an accepted
// manifest must survive a marshal/decode round trip.
func FuzzVenueManifestDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1,"venues":[]}`))
	f.Add([]byte(`{"schema":1,"venues":[{"id":"hq","room":{"maxX":6,"maxY":5},` +
		`"aps":[{"x":0,"y":2.5,"axisDeg":90},{"x":6,"y":2.5,"axisDeg":90}]}]}`))
	f.Add([]byte(`{"schema":1,"venues":[{"id":"a.b","room":{"maxX":1,"maxY":1},"aps":[{},{}]}]}`))
	f.Add([]byte(`{"schema":2,"venues":[{"id":"x","room":{"maxX":1,"maxY":1},"aps":[{},{}]}]}`))
	f.Add([]byte(`{"schema":1,"venues":[{"id":"x","room":{"minX":1e308,"maxX":-1e308},"aps":[{},{}]}]}`))
	f.Add([]byte(`{"schema":1,"venues":[{"id":"x","room":{"maxX":1,"maxY":1},` +
		`"aps":[{},{}],"thetaPoints":1,"tauPoints":-2}]}`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if m.Schema < 1 || m.Schema > ManifestSchema {
			t.Fatalf("accepted schema %d outside [1,%d]", m.Schema, ManifestSchema)
		}
		if len(m.Venues) == 0 {
			t.Fatal("accepted a manifest with no venues")
		}
		seen := make(map[string]bool, len(m.Venues))
		for i := range m.Venues {
			s := &m.Venues[i]
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted manifest holds invalid spec: %v", err)
			}
			if seen[s.ID] {
				t.Fatalf("accepted duplicate id %q", s.ID)
			}
			seen[s.ID] = true
			// The derived configs must be constructible without panicking;
			// geometry/grid invariants Validate enforces make them so.
			if err := s.Deployment().Validate(); err != nil {
				t.Fatalf("spec %s: derived deployment invalid: %v", s.ID, err)
			}
			cfg := s.EstimatorConfig()
			if err := cfg.Validate(); err != nil {
				t.Fatalf("spec %s: derived estimator config invalid: %v", s.ID, err)
			}
		}
		// Round trip: what the decoder accepted must re-encode and re-decode
		// to an equally valid manifest.
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encode accepted manifest: %v", err)
		}
		if _, err := DecodeManifest(enc); err != nil {
			t.Fatalf("round trip rejected an accepted manifest: %v", err)
		}
	})
}
