package venue

import (
	"encoding/json"
	"strings"
	"testing"
)

// smokeSpec is a small, fast-to-build venue (the serving smoke working
// point: 8 subcarriers, 19 x 8 grids).
func smokeSpec(id string) Spec {
	return Spec{
		ID:   id,
		Room: RoomSpec{MinX: 0, MinY: 0, MaxX: 6, MaxY: 5},
		APs: []APSpec{
			{X: 0.1, Y: 2.5, AxisDeg: 90},
			{X: 5.9, Y: 2.5, AxisDeg: 90},
			{X: 3, Y: 0.1, AxisDeg: 0},
		},
		Subcarriers:         8,
		SubcarrierSpacingHz: 4e6,
		ThetaPoints:         19,
		TauPoints:           8,
		MaxIters:            60,
	}
}

func manifestJSON(t *testing.T, m Manifest) []byte {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeManifestRoundTrip(t *testing.T) {
	m := Manifest{Schema: 1, Venues: []Spec{smokeSpec("hq"), smokeSpec("lab-2")}}
	got, err := DecodeManifest(manifestJSON(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Venues) != 2 || got.Venues[0].ID != "hq" || got.Venues[1].ID != "lab-2" {
		t.Fatalf("round trip mangled venues: %+v", got.Venues)
	}
}

func TestDecodeManifestRejections(t *testing.T) {
	base := func() Manifest { return Manifest{Schema: 1, Venues: []Spec{smokeSpec("hq")}} }
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"schema zero", func(m *Manifest) { m.Schema = 0 }, "schema"},
		{"schema future", func(m *Manifest) { m.Schema = ManifestSchema + 1 }, "schema"},
		{"no venues", func(m *Manifest) { m.Venues = nil }, "no venues"},
		{"bad id dot", func(m *Manifest) { m.Venues[0].ID = "a.b" }, "must match"},
		{"bad id empty", func(m *Manifest) { m.Venues[0].ID = "" }, "must match"},
		{"bad id space", func(m *Manifest) { m.Venues[0].ID = "a b" }, "must match"},
		{"bad id long", func(m *Manifest) { m.Venues[0].ID = strings.Repeat("x", 65) }, "must match"},
		{"one AP", func(m *Manifest) { m.Venues[0].APs = m.Venues[0].APs[:1] }, "at least 2 APs"},
		{"empty room", func(m *Manifest) { m.Venues[0].Room.MaxX = m.Venues[0].Room.MinX }, "empty room"},
		{"negative grid", func(m *Manifest) { m.Venues[0].ThetaPoints = -3 }, "negative"},
		{"one-point grid", func(m *Manifest) { m.Venues[0].TauPoints = 1 }, "at least 2 points"},
		{"dup ids", func(m *Manifest) { m.Venues = append(m.Venues, smokeSpec("hq")) }, "duplicate id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mut(&m)
			_, err := DecodeManifest(manifestJSON(t, m))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	if _, err := DecodeManifest([]byte("{")); err == nil {
		t.Fatal("truncated JSON decoded")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{
		ID:   "min",
		Room: RoomSpec{MaxX: 10, MaxY: 8},
		APs:  []APSpec{{X: 0, Y: 4}, {X: 10, Y: 4}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d := s.Deployment()
	if d.OFDM.NumSubcarriers != 30 {
		t.Fatalf("default subcarriers = %d, want Intel 5300's 30", d.OFDM.NumSubcarriers)
	}
	cfg := s.EstimatorConfig()
	if cfg.ThetaGrid != nil || cfg.TauGrid != nil {
		t.Fatal("zero grid points must defer to estimator defaults (nil grids)")
	}
}

func TestBuildFootprintAndWarmup(t *testing.T) {
	v, err := Build(smokeSpec("hq"), BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Bytes <= 0 {
		t.Fatalf("footprint %d, want positive", v.Bytes)
	}
	if v.BuildDuration <= 0 {
		t.Fatal("build duration not recorded")
	}
	// A venue with denser grids must account strictly more bytes — the
	// ordering the LRU budget relies on.
	big := smokeSpec("big")
	big.ThetaPoints, big.TauPoints = 37, 16
	vb, err := Build(big, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if vb.Bytes <= v.Bytes {
		t.Fatalf("denser venue footprint %d not > %d", vb.Bytes, v.Bytes)
	}
}

func TestBuildRejectsInvalidSpec(t *testing.T) {
	bad := smokeSpec("bad id")
	if _, err := Build(bad, BuildConfig{}); err == nil {
		t.Fatal("invalid spec built")
	}
}
