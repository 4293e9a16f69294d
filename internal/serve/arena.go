package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"roarray/internal/core"
)

// arena owns every buffer one /v1/localize or /v1/track call fills, from the
// body bytes to the encoded response: the call itself and its context, the
// body and the reader that bounds it, the decoded wire request and the
// slabs its links, packets, rows and values are carved from, the engine
// request ToCore builds with its CSI slabs, the pending slot and its done
// channel, the engine's result (the core.LocalizeResult and, for a tracked
// epoch, the core.TrackResult the batch slot writes in place), the
// estimate its event logs, and the response with its encode buffer.
//
// A call takes its arena from arenaPool in newCall and gives it back in
// end. That is safe because submit always waits for the dispatcher's
// outcome, so no engine work on the request outlives its handler. Nothing
// that outlives the reply may point into an arena: the event log, the
// flight ring, sessions and exemplars hold copies or their own
// allocations. Buffers only grow; an arena whose buffers outgrow
// pooledBodyBytes is left to the garbage collector.
type arena struct {
	call call
	ctx  reqCtx
	body bytes.Buffer
	// lim bounds the pooled read of the body (see decodeBody).
	lim io.LimitedReader
	// req is the decoded body: a /v1/localize call decodes into its
	// embedded Request, a /v1/track call into the whole value.
	req  TrackRequest
	wire wireSlabs
	csi  csiSlabs
	p    pending
	// res and track are the engine's answer, written by the batch slot;
	// res.Links keeps its capacity across calls.
	res   core.LocalizeResult
	track core.TrackResult
	// est backs the [x, y] estimate of the request's ok event.
	est [2]float64
	// resp is the answer: a /v1/localize call encodes its embedded
	// Response, a /v1/track call the whole value. links backs its Links.
	resp  TrackResponse
	links []LinkResult
	out   jsonOut
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// release zeroes everything of a that refers to the finished call, keeping
// the buffers, hands a to hook (a test's probe of released arenas; nil in
// production), and pools it unless it has grown past pooledBodyBytes.
func (a *arena) release(hook func(*arena)) {
	a.call = call{}
	a.ctx.release()
	a.req = TrackRequest{}
	a.p = pending{done: a.p.done}
	clear(a.res.Links)
	a.res = core.LocalizeResult{Links: a.res.Links[:0]}
	a.track = core.TrackResult{}
	a.resp = TrackResponse{}
	if hook != nil {
		hook(a)
	}
	if a.size() <= pooledBodyBytes {
		arenaPool.Put(a)
	}
}

// size is the arena's footprint in bytes, counted over its byte buffers and
// value slabs, the parts that scale with a request.
func (a *arena) size() int {
	const value, row = 16, 24 // a [2]float64 or complex128; a slice header
	return a.body.Cap() + a.out.buf.Cap() +
		(cap(a.wire.vals)+cap(a.csi.vals))*value + (cap(a.wire.rows)+cap(a.csi.rows))*row
}

// grow returns s resliced to length n, allocating only when its capacity
// is short (or it is nil, so an empty result still encodes as []).
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// jsonContentType is every JSON answer's Content-Type value, shared: its
// capacity equals its length, so a handler that appends to the header's
// values copies it instead of writing into it.
var jsonContentType = []string{"application/json; charset=utf-8"}

// jsonOut encodes response bodies into a reusable buffer.
type jsonOut struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// write answers with status and v encoded as one JSON line, the bytes
// json.NewEncoder(w).Encode(v) would write; a value that fails to encode
// leaves the body empty, as it does there.
func (o *jsonOut) write(w http.ResponseWriter, status int, v any) {
	if o.enc == nil {
		o.enc = json.NewEncoder(&o.buf)
	}
	o.buf.Reset()
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if o.enc.Encode(v) == nil {
		w.Write(o.buf.Bytes()) //nolint:errcheck // nothing to do about a client gone mid-write
	}
}
