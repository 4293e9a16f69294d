package wireless

import (
	"math"
	"math/rand"
	"testing"

	"roarray/internal/obs"
)

func generatorTestConfig() *ChannelConfig {
	return &ChannelConfig{
		Array: Intel5300Array(),
		OFDM:  Intel5300OFDM(),
		Paths: []Path{
			{AoADeg: 120, ToA: 60e-9, Gain: 1},
			{AoADeg: 45, ToA: 250e-9, Gain: 0.6},
		},
		SNRdB:             6,
		MaxDetectionDelay: 200e-9,
		InterferenceProb:  0.3,
		InterferenceINR:   2,
	}
}

// sameCSI compares two measurements bit-for-bit.
func sameCSI(a, b *CSI) bool {
	if a.NumAntennas != b.NumAntennas || a.NumSubcarriers != b.NumSubcarriers {
		return false
	}
	for m := range a.Data {
		for l := range a.Data[m] {
			va, vb := a.Data[m][l], b.Data[m][l]
			if math.Float64bits(real(va)) != math.Float64bits(real(vb)) ||
				math.Float64bits(imag(va)) != math.Float64bits(imag(vb)) {
				return false
			}
		}
	}
	return math.Float64bits(a.DetectionDelay) == math.Float64bits(b.DetectionDelay)
}

// TestGeneratorSameSeedByteIdentical is the determinism regression: two
// same-seed RNG streams over the same channel emit byte-identical CSI
// streams, packet by packet, no matter what else the process is doing.
func TestGeneratorSameSeedByteIdentical(t *testing.T) {
	cfg := generatorTestConfig()
	ba, err := GenerateBurst(cfg, 10, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	bb, err := GenerateBurst(cfg, 10, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ba {
		if !sameCSI(ba[i], bb[i]) {
			t.Fatalf("packet %d differs between same-seed streams", i)
		}
	}

	// Different seeds must decorrelate (the noise draws differ).
	pc, err := Generate(cfg, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	if sameCSI(ba[0], pc) {
		t.Fatal("different seeds produced identical packets")
	}
}

// TestGeneratorInstrument checks that RecordGenerated counts generated
// packets and records their SNR distribution, and that a nil registry is a
// no-op.
func TestGeneratorInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	RecordGenerated(reg, 6, 5)
	RecordGenerated(reg, 20, 3)
	RecordGenerated(reg, 20, 0)
	if got := reg.Counter("wireless.packets_total").Value(); got != 8 {
		t.Fatalf("wireless.packets_total = %d, want 8", got)
	}
	snr := reg.Histogram("wireless.snr_db").Snapshot()
	if snr.Count != 8 {
		t.Fatalf("wireless.snr_db count = %d, want 8", snr.Count)
	}
	if snr.Sum != 5*6+3*20 {
		t.Fatalf("wireless.snr_db sum = %v, want %v", snr.Sum, 5*6+3*20)
	}
	RecordGenerated(nil, 20, 3) // nil registry must be a no-op, not a panic
}

// TestGeneratorValidation covers the generators' errors: an invalid channel
// and the explicit-RNG requirement.
func TestGeneratorValidation(t *testing.T) {
	bad := generatorTestConfig()
	bad.Paths = nil
	if _, err := GenerateBurst(bad, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid config should error")
	}
	if _, err := Generate(generatorTestConfig(), nil); err == nil {
		t.Fatal("Generate with nil rng should error, not fall back to global rand")
	}
}
