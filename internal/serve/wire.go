package serve

import (
	"fmt"
	"math"
	"time"

	"roarray/internal/core"
	"roarray/internal/wireless"
)

// Request is the JSON body of POST /v1/localize: per-AP geometry, RSSI, and
// raw CSI packet bursts, plus the position search region. It is the
// over-the-wire twin of core.LocalizeRequest — a deployed client (a phone, a
// robot) ships the CSI its NIC measured and the server runs the whole
// sparse-recovery pipeline.
type Request struct {
	// VenueID names the venue (building) this request belongs to, resolving
	// the AP geometry and dictionaries server-side via the venue registry.
	// Empty selects the server's default engine (single-venue mode); on a
	// multi-venue server an unknown id answers 404.
	VenueID string `json:"venueId,omitempty"`
	// Links carries one entry per AP; at least two are required.
	Links []Link `json:"links"`
	// Room is the position search region in meters.
	Room Rect `json:"room"`
	// GridStepMeters is the search grid step; <= 0 selects 0.1 m.
	GridStepMeters float64 `json:"gridStepMeters,omitempty"`
	// DeadlineMillis, when > 0, bounds the server-side time budget for this
	// request (queueing + solving). The effective deadline is the tighter of
	// this and the server's configured request timeout; exceeding it yields
	// HTTP 504.
	DeadlineMillis float64 `json:"deadlineMillis,omitempty"`
}

// Rect is the wire form of core.Rect.
type Rect struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// Link is one AP's contribution: array geometry, link RSSI, and the CSI
// burst to estimate the direct path from.
type Link struct {
	// X, Y position the AP's array center in meters.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// AxisDeg is the array axis orientation (degrees CCW from +x).
	AxisDeg float64 `json:"axisDeg"`
	// RSSIdBm is the link RSSI (the Eq. 19 weight).
	RSSIdBm float64 `json:"rssiDbm"`
	// Packets is the CSI burst.
	Packets []Packet `json:"packets"`
}

// Packet is one CSI measurement: Data[antenna][subcarrier] = [re, im].
// Dimensions are implied by the nesting and must be rectangular; every
// packet in a request must match the server's configured antenna and
// subcarrier counts.
type Packet struct {
	Data [][][2]float64 `json:"data"`
}

// LinkResult is the per-AP outcome inside a Response.
type LinkResult struct {
	// AoADeg is the estimated direct-path AoA (broadside 90 when the link
	// degraded).
	AoADeg float64 `json:"aoaDeg"`
	// Error is the per-link failure, if any; the request still succeeds.
	Error string `json:"error,omitempty"`
	// Confidence is the reduced fusion weight assigned when admission
	// sanitization flagged this link faulty; omitted (zero) for clean links.
	Confidence float64 `json:"confidence,omitempty"`
}

// Response is the JSON body of a successful localization.
type Response struct {
	// RequestID echoes the request's id (the client's X-Request-Id header
	// when one was sent, a server-minted id otherwise) — the join key into
	// the server's trace spans, request log, and metric exemplars. The same
	// value rides the X-Request-Id response header on every status.
	RequestID string `json:"requestId,omitempty"`
	// X, Y is the Eq. 19 grid-search position estimate in meters.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Links holds per-AP results in request order.
	Links []LinkResult `json:"links"`
	// BatchSize is the number of requests in the micro-batch this request
	// was flushed with — the server-side coalescing factor.
	BatchSize int `json:"batchSize"`
	// QueueMillis is the time this request waited in the admission queue
	// before its batch was flushed.
	QueueMillis float64 `json:"queueMillis"`
	// TotalMillis is the server-side time from admission to response.
	TotalMillis float64 `json:"totalMillis"`
}

// ErrorResponse is the JSON body of every non-200 status.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Deadline returns the request's own time budget (0 when unset).
func (r *Request) Deadline() time.Duration {
	if r.DeadlineMillis <= 0 {
		return 0
	}
	return time.Duration(r.DeadlineMillis * float64(time.Millisecond))
}

// ToCore validates the wire request and converts it into a
// core.LocalizeRequest. Every packet must be a rectangular complex matrix
// with the same dimensions as the first packet of the first link. It is the
// handlers' conversion over fresh slabs, so the result shares no storage.
func (r *Request) ToCore() (*core.LocalizeRequest, error) {
	return new(csiSlabs).toCore(r)
}

// csiSlabs is the engine-side storage of one converted request: the
// core.LocalizeRequest, its links, and the packet bursts, CSI matrices,
// antenna rows and complex values they are carved from.
type csiSlabs struct {
	req    core.LocalizeRequest
	links  []core.LinkInput
	bursts []*wireless.CSI
	csis   []wireless.CSI
	rows   [][]complex128
	vals   []complex128
}

// toCore is ToCore over cs: the returned request and every slice in it point
// into cs, which must not be reused while the request is in use.
func (cs *csiSlabs) toCore(r *Request) (*core.LocalizeRequest, error) {
	if len(r.Links) < 2 {
		return nil, fmt.Errorf("serve: request needs >= 2 links, got %d", len(r.Links))
	}
	// JSON cannot encode NaN/Inf, so HTTP requests are finite by
	// construction — but ToCore is also the admission gate for in-process
	// callers, where a non-finite room or RSSI would poison the Eq. 19 cost
	// surface (NaN compares false against everything, wedging the search at
	// its starting corner).
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"room.minX", r.Room.MinX}, {"room.minY", r.Room.MinY},
		{"room.maxX", r.Room.MaxX}, {"room.maxY", r.Room.MaxY},
		{"gridStepMeters", r.GridStepMeters}, {"deadlineMillis", r.DeadlineMillis},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("serve: non-finite %s %v", f.name, f.v)
		}
	}
	if r.Room.MaxX <= r.Room.MinX || r.Room.MaxY <= r.Room.MinY {
		return nil, fmt.Errorf("serve: empty room %+v", r.Room)
	}
	// Size every slab before filling any, so a burst never straddles a
	// slab's growth.
	var packets, rows, vals int
	for _, link := range r.Links {
		packets += len(link.Packets)
		for _, pkt := range link.Packets {
			rows += len(pkt.Data)
			for _, row := range pkt.Data {
				vals += len(row)
			}
		}
	}
	cs.links = grow(cs.links, len(r.Links))
	cs.bursts = grow(cs.bursts, packets)
	cs.csis = grow(cs.csis, packets)
	// fill appends the rows and values within the capacity sized here.
	cs.rows = grow(cs.rows, rows)[:0]
	cs.vals = grow(cs.vals, vals)[:0]
	var m, l, pi int
	for i, link := range r.Links {
		if len(link.Packets) == 0 {
			return nil, fmt.Errorf("serve: link %d has no packets", i)
		}
		for _, v := range [...]float64{link.X, link.Y, link.AxisDeg, link.RSSIdBm} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("serve: link %d has non-finite geometry/RSSI", i)
			}
		}
		burst := cs.bursts[pi : pi+len(link.Packets) : pi+len(link.Packets)]
		for p := range link.Packets {
			csi := &cs.csis[pi+p]
			if err := cs.fill(csi, &link.Packets[p]); err != nil {
				return nil, fmt.Errorf("serve: link %d packet %d: %w", i, p, err)
			}
			if m == 0 {
				m, l = csi.NumAntennas, csi.NumSubcarriers
			} else if csi.NumAntennas != m || csi.NumSubcarriers != l {
				return nil, fmt.Errorf("serve: link %d packet %d is %dx%d, request started %dx%d",
					i, p, csi.NumAntennas, csi.NumSubcarriers, m, l)
			}
			burst[p] = csi
		}
		pi += len(link.Packets)
		cs.links[i] = core.LinkInput{
			Pos:     core.Point{X: link.X, Y: link.Y},
			AxisDeg: link.AxisDeg,
			RSSIdBm: link.RSSIdBm,
			Packets: burst,
		}
	}
	cs.req = core.LocalizeRequest{
		Links: cs.links,
		Bounds: core.Rect{
			MinX: r.Room.MinX, MinY: r.Room.MinY,
			MaxX: r.Room.MaxX, MaxY: r.Room.MaxY,
		},
		Step: r.GridStepMeters,
	}
	return &cs.req, nil
}

// Dims returns the antenna and subcarrier counts of the request's first
// packet (0, 0 when there is none). Call after ToCore has validated
// rectangularity.
func (r *Request) Dims() (antennas, subcarriers int) {
	if len(r.Links) == 0 || len(r.Links[0].Packets) == 0 {
		return 0, 0
	}
	d := r.Links[0].Packets[0].Data
	if len(d) == 0 {
		return 0, 0
	}
	return len(d), len(d[0])
}

// fill converts one wire packet into dst, appending its rows and values to
// the slabs toCore sized for the whole request.
func (cs *csiSlabs) fill(dst *wireless.CSI, p *Packet) error {
	m := len(p.Data)
	if m == 0 {
		return fmt.Errorf("packet has no antennas")
	}
	l := len(p.Data[0])
	if l == 0 {
		return fmt.Errorf("packet has no subcarriers")
	}
	r0 := len(cs.rows)
	for a, row := range p.Data {
		if len(row) != l {
			return fmt.Errorf("antenna %d has %d subcarriers, antenna 0 has %d", a, len(row), l)
		}
		v0 := len(cs.vals)
		for _, v := range row {
			cs.vals = append(cs.vals, complex(v[0], v[1]))
		}
		cs.rows = append(cs.rows, cs.vals[v0:len(cs.vals):len(cs.vals)])
	}
	*dst = wireless.CSI{NumAntennas: m, NumSubcarriers: l, Data: cs.rows[r0:len(cs.rows):len(cs.rows)]}
	return nil
}

// FromCore converts a core request into its wire form — the encoder load
// generators and tests use so that what travels over HTTP is exactly what a
// direct Engine call would see.
func FromCore(req *core.LocalizeRequest) *Request {
	out := &Request{
		Links: make([]Link, len(req.Links)),
		Room: Rect{
			MinX: req.Bounds.MinX, MinY: req.Bounds.MinY,
			MaxX: req.Bounds.MaxX, MaxY: req.Bounds.MaxY,
		},
		GridStepMeters: req.Step,
	}
	for i, in := range req.Links {
		packets := make([]Packet, len(in.Packets))
		for p, csi := range in.Packets {
			data := make([][][2]float64, csi.NumAntennas)
			for a := 0; a < csi.NumAntennas; a++ {
				row := make([][2]float64, csi.NumSubcarriers)
				for s := 0; s < csi.NumSubcarriers; s++ {
					v := csi.Data[a][s]
					row[s] = [2]float64{real(v), imag(v)}
				}
				data[a] = row
			}
			packets[p] = Packet{Data: data}
		}
		out.Links[i] = Link{
			X:       in.Pos.X,
			Y:       in.Pos.Y,
			AxisDeg: in.AxisDeg,
			RSSIdBm: in.RSSIdBm,
			Packets: packets,
		}
	}
	return out
}
