package fault

import (
	"math/rand"
	"testing"

	"roarray/internal/wireless"
)

func testChannel() *wireless.ChannelConfig {
	return &wireless.ChannelConfig{
		Array: wireless.Intel5300Array(),
		OFDM:  wireless.Intel5300OFDM(),
		Paths: []wireless.Path{{AoADeg: 70, ToA: 25e-9, Gain: 1}},
		SNRdB: 12,
	}
}

// TestGeneratorTransformIsRNGNeutral: a fault transform must not perturb
// the generated stream. An injector whose fault never fires passes packets
// through byte-identical to a plain same-seed burst — the contract that
// keeps fault-free evaluation runs bit-identical to the pre-fault pipeline.
func TestGeneratorTransformIsRNGNeutral(t *testing.T) {
	pb, err := wireless.GenerateBurst(testChannel(), 6, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(Plan{Kind: KindNone}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := wireless.GenerateBurst(testChannel(), 6, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	hb = in.TransformBurst(hb)
	for p := range pb {
		for m := range pb[p].Data {
			for l := range pb[p].Data[m] {
				if pb[p].Data[m][l] != hb[p].Data[m][l] {
					t.Fatalf("packet %d [%d][%d]: transform stage perturbed the stream", p, m, l)
				}
			}
		}
	}
}

// TestGeneratorFaultStreamDeterministic: the (generator seed, plan, injector
// seed) triple pins the corrupted stream byte-for-byte.
func TestGeneratorFaultStreamDeterministic(t *testing.T) {
	mk := func() []*wireless.CSI {
		in, err := New(Plan{Kind: KindSubcarrierErasure, Prob: 0.5, Subcarriers: 3}, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wireless.GenerateBurst(testChannel(), 8, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return in.TransformBurst(b)
	}
	a, b := mk(), mk()
	for p := range a {
		for m := range a[p].Data {
			for l := range a[p].Data[m] {
				if a[p].Data[m][l] != b[p].Data[m][l] {
					t.Fatalf("packet %d [%d][%d]: faulted stream not reproducible", p, m, l)
				}
			}
		}
	}
}
