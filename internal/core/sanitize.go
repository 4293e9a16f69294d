package core

import (
	"errors"
	"fmt"
	"math"

	"roarray/internal/wireless"
)

// Typed admission errors. Callers branch on these with errors.Is to decide
// between rejecting a request (dimension breakage is a caller bug) and
// degrading a link (a burst with no usable packet is a hardware/driver
// fault).
var (
	// ErrCSIDimension marks a measurement whose shape does not match the
	// estimator configuration (wrong antenna count, truncated subcarriers,
	// ragged rows).
	ErrCSIDimension = errors.New("core: CSI dimensions do not match configuration")
	// ErrNoUsablePackets is returned when sanitization drops every packet of
	// a burst.
	ErrNoUsablePackets = errors.New("core: no usable packets after sanitization")
)

// repairFraction bounds zero-repair: a packet with at most this fraction of
// non-finite entries is kept with those entries zeroed (a scattered driver
// glitch), anything worse is dropped whole (the packet is garbage).
const repairFraction = 0.1

// confidenceFloor is the minimum fusion weight a flagged-faulty link retains.
// Keeping a sliver of weight (rather than zero) lets a degraded link still
// break ties without letting it poison the Eq. 19 cost surface.
const confidenceFloor = 0.05

// BurstReport summarizes what admission sanitization did to one packet burst.
type BurstReport struct {
	// Total and Kept count packets before and after sanitization.
	Total, Kept int
	// Repaired counts kept packets that had non-finite entries zeroed.
	Repaired int
	// DroppedNonFinite counts packets discarded for non-finite contamination
	// above the repair threshold.
	DroppedNonFinite int
	// DroppedDimension counts packets discarded for shape breakage (wrong
	// antenna count, truncated or ragged subcarrier rows, nil packet).
	DroppedDimension int
	// Antennas is the configured antenna count; DeadAntennas counts rows that
	// are identically zero across every kept packet (a dead array element).
	Antennas, DeadAntennas int
}

// Clean reports whether the burst passed untouched: nothing dropped, nothing
// repaired, no dead antenna detected.
func (r BurstReport) Clean() bool {
	return r.Kept == r.Total && r.Repaired == 0 && r.DeadAntennas == 0
}

// Confidence maps the report to a fusion weight in [confidenceFloor, 1]: the
// surviving-packet ratio scaled by the live-antenna ratio. A clean burst
// scores 1; a fully dead link bottoms out at the floor instead of zero so the
// link still participates (weakly) in localization.
func (r BurstReport) Confidence() float64 {
	if r.Total == 0 || r.Kept == 0 {
		return confidenceFloor
	}
	c := float64(r.Kept) / float64(r.Total)
	if r.Antennas > 0 {
		c *= float64(r.Antennas-r.DeadAntennas) / float64(r.Antennas)
	}
	if c < confidenceFloor {
		return confidenceFloor
	}
	if c > 1 {
		return 1
	}
	return c
}

func isFiniteC(v complex128) bool {
	return !math.IsNaN(real(v)) && !math.IsInf(real(v), 0) &&
		!math.IsNaN(imag(v)) && !math.IsInf(imag(v), 0)
}

// dimensionProblem returns a description of c's shape breakage, or "" if the
// shape is consistent and (when wantM/wantL are positive) matches them.
func dimensionProblem(c *wireless.CSI, wantM, wantL int) string {
	if c == nil {
		return "nil packet"
	}
	if len(c.Data) != c.NumAntennas {
		return fmt.Sprintf("%d data rows for %d antennas", len(c.Data), c.NumAntennas)
	}
	for m, row := range c.Data {
		if len(row) != c.NumSubcarriers {
			return fmt.Sprintf("antenna %d has %d subcarriers, header says %d", m, len(row), c.NumSubcarriers)
		}
	}
	if wantM > 0 && c.NumAntennas != wantM {
		return fmt.Sprintf("%d antennas, config wants %d", c.NumAntennas, wantM)
	}
	if wantL > 0 && c.NumSubcarriers != wantL {
		return fmt.Sprintf("%d subcarriers, config wants %d", c.NumSubcarriers, wantL)
	}
	return ""
}

func nonFiniteCount(c *wireless.CSI) int {
	n := 0
	for _, row := range c.Data {
		for _, v := range row {
			if !isFiniteC(v) {
				n++
			}
		}
	}
	return n
}

// SanitizeBurst screens a packet burst before estimation. Packets with shape
// breakage are dropped; packets with a scattered sprinkle of non-finite
// entries (at most repairFraction of the matrix) are kept with those entries
// zeroed on a copy; packets contaminated beyond that are dropped. Inputs are
// never mutated, and a clean burst comes back as the identical slice with a
// Clean report — sanitization on the healthy path is observation, not
// transformation.
//
// The returned error (wrapping ErrNoUsablePackets) is non-nil only when
// nothing survives; the report is valid either way.
func SanitizeBurst(packets []*wireless.CSI, wantM, wantL int) ([]*wireless.CSI, BurstReport, error) {
	rep := BurstReport{Total: len(packets), Antennas: wantM}
	// kept stays nil, and costs nothing, until the first packet is dropped
	// or repaired; it then starts from the packets before that one.
	var kept []*wireless.CSI
	touch := func(i int) {
		if kept == nil {
			kept = append(make([]*wireless.CSI, 0, len(packets)), packets[:i]...)
		}
	}
	for i, p := range packets {
		if dimensionProblem(p, wantM, wantL) != "" {
			rep.DroppedDimension++
			touch(i)
			continue
		}
		bad := nonFiniteCount(p)
		if bad > 0 {
			touch(i)
			if float64(bad) > repairFraction*float64(p.NumAntennas*p.NumSubcarriers) {
				rep.DroppedNonFinite++
				continue
			}
			repaired := p.Clone()
			for m, row := range repaired.Data {
				for l, v := range row {
					if !isFiniteC(v) {
						repaired.Data[m][l] = 0
					}
				}
			}
			p = repaired
			rep.Repaired++
		}
		if kept != nil {
			kept = append(kept, p)
		}
	}
	if kept == nil {
		kept = packets
	}
	rep.Kept = len(kept)
	if rep.Kept == 0 {
		return nil, rep, fmt.Errorf("%w: %d dimension-broken, %d non-finite of %d",
			ErrNoUsablePackets, rep.DroppedDimension, rep.DroppedNonFinite, rep.Total)
	}
	// A row that is identically zero in every surviving packet is a dead
	// array element: the steering dictionary still models it as live, so its
	// absence biases the AoA estimate and must discount the link's weight.
	if wantM > 0 {
		for ant := 0; ant < wantM; ant++ {
			dead := true
		scan:
			for _, p := range kept {
				for _, v := range p.Data[ant] {
					if v != 0 {
						dead = false
						break scan
					}
				}
			}
			if dead {
				rep.DeadAntennas++
			}
		}
	}
	return kept, rep, nil
}
