package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// Request IDs tie every signal the observability layer emits — spans, the
// wide-event request log, and histogram exemplars — back to one concrete
// request, so a slow p99 bucket or a degraded outcome names a trace an
// operator can actually pull. IDs are minted at admission (or honored from a
// client's X-Request-Id header by the serving layer) and propagated by
// context; everything downstream reads RequestIDFrom(ctx) and never needs a
// new parameter.

// MaxRequestIDLen bounds accepted request IDs: anything longer is truncated
// by SanitizeRequestID, keeping event-log lines and exemplar strings small no
// matter what a client sends.
const MaxRequestIDLen = 64

type ridKey struct{}

// reqSeq disambiguates fallback IDs minted when crypto/rand fails (it
// practically never does, but an ID generator must not).
var reqSeq atomic.Uint64

// NewRequestID mints a fresh 16-hex-character request ID. IDs are random
// (not sequential), so concurrent minters on one host and minters across
// hosts need no coordination to stay unique.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fallback: a process-local sequence still yields distinct IDs.
		n := reqSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// SanitizeRequestID makes a client-supplied ID safe to echo into headers,
// JSONL streams, and metric exemplars: control characters and spaces become
// '_' and the result is truncated to MaxRequestIDLen. An empty input stays
// empty (the caller should then mint one).
func SanitizeRequestID(id string) string {
	if len(id) > MaxRequestIDLen {
		id = id[:MaxRequestIDLen]
	}
	out := []byte(id)
	dirty := false
	for i := 0; i < len(out); i++ {
		if out[i] <= ' ' || out[i] == 0x7f {
			out[i] = '_'
			dirty = true
		}
	}
	if !dirty {
		return id
	}
	return string(out)
}

// WithRequestID returns a context carrying the request ID. Spans started
// under it stamp the ID into their events, and instrumented stages can
// attach it to histogram exemplars. An empty ID returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestIDFrom returns the context's request ID, or "" when none was set.
func RequestIDFrom(ctx context.Context) string { return stringValue(ctx, ridKey{}) }

// stringValue reads a string the context carries under key: a string a
// With function stored, or a pointer to a RequestValues field.
func stringValue(ctx context.Context, key any) string {
	switch v := ctx.Value(key).(type) {
	case string:
		return v
	case *string:
		return *v
	}
	return ""
}

type venueKey struct{}

// WithVenue returns a context carrying the venue ID the request is being
// served for. Spans started under it stamp the venue into their events, the
// same way the request ID rides along — so a trace stream interleaving many
// venues can be sliced per building. An empty ID returns ctx unchanged
// (single-venue mode stays attribute-free).
func WithVenue(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, venueKey{}, id)
}

// VenueFrom returns the context's venue ID, or "" when none was set.
func VenueFrom(ctx context.Context) string { return stringValue(ctx, venueKey{}) }

// RequestValues is a context carrying a request's id, tracer and venue in
// fields instead of one context.WithValue layer each. RequestIDFrom,
// TracerFrom and VenueFrom read them as they would read
// WithVenue(WithTracer(WithRequestID(parent, ID), Tracer), Venue), an empty
// field answering from parent just as the With function would have left it
// out; every other key, and Deadline, Done and Err, come from the embedded
// parent. A server that keeps one per request in pooled memory and resets
// it per call carries these values without allocating, and looking them up
// allocates nothing either: the id and venue keys are answered with
// pointers to the fields, which RequestIDFrom and VenueFrom read.
type RequestValues struct {
	context.Context
	ID     string
	Tracer *Tracer
	Venue  string
}

// Value answers the request id, tracer and venue keys from v's fields and
// every other key from the parent.
func (v *RequestValues) Value(key any) any {
	switch k := key.(type) {
	case ridKey:
		if v.ID != "" {
			return &v.ID
		}
	case venueKey:
		if v.Venue != "" {
			return &v.Venue
		}
	case ctxKey:
		if k == tracerKey && v.Tracer != nil {
			return v.Tracer
		}
	}
	return v.Context.Value(key)
}
