package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// RequestEventSchema is the current version of the wide-event request-log
// record. Decoders accept any record whose Schema is in
// [1, RequestEventSchema]; fields added in later versions must be optional
// (omitempty) so version-1 readers keep working on newer streams.
const RequestEventSchema = 1

// RequestEvent is one wide-event record: everything worth knowing about a
// single completed (or rejected) request, flattened into one JSON object so
// a slow or degraded request can be diagnosed from a single line — no joins
// against other telemetry needed. One line is written per request outcome.
type RequestEvent struct {
	// Schema versions this record (see RequestEventSchema).
	Schema int `json:"schema"`
	// ID is the request ID (minted at admission or honored from the
	// client's X-Request-Id header). Matches SpanEvent.Req and histogram
	// exemplars for the same request.
	ID string `json:"id"`
	// TimeUnixNs is the completion wall-clock time.
	TimeUnixNs int64 `json:"tNs"`
	// Outcome classifies the terminal state: "ok", "rejected_queue_full",
	// "rejected_draining", "bad_request", "deadline", "canceled", "error".
	Outcome string `json:"outcome"`
	// Venue is the venue ID that served the request (empty in single-venue
	// mode). Optional, so the record stays schema 1: version-1 readers keep
	// working on streams that carry it.
	Venue string `json:"venue,omitempty"`
	// Status is the HTTP status the client saw.
	Status int `json:"status"`
	// ErrorClass is a stable, low-cardinality failure label (the outcome
	// refined, e.g. "decode", "dimension"); Error is the full message.
	ErrorClass string `json:"errorClass,omitempty"`
	Error      string `json:"error,omitempty"`

	// QueueMillis is the admission-queue wait; TotalMillis the server-side
	// admission-to-response time; DeadlineMillis the effective budget the
	// request ran under (0 = none). Budget minus spent is the headroom a
	// 504 diagnosis starts from.
	QueueMillis    float64 `json:"queueMs,omitempty"`
	TotalMillis    float64 `json:"totalMs,omitempty"`
	DeadlineMillis float64 `json:"deadlineMs,omitempty"`

	// BatchID numbers the micro-batch flush that carried this request
	// (shared by every request in the flush); BatchSize is how many rode it.
	BatchID   int64 `json:"batchId,omitempty"`
	BatchSize int   `json:"batchSize,omitempty"`

	// SearchMode and CellsEvaluated report what the Eq. 19 grid search did.
	SearchMode     string `json:"searchMode,omitempty"`
	CellsEvaluated int    `json:"cells,omitempty"`

	// Solver is the algorithm that produced the final accepted solve of the
	// request's links ("admm", "fista", "omp"; "mixed" when links differ).
	// FallbackStage is the degradation stage any link engaged ("" =
	// primary, "omp").
	Solver        string `json:"solver,omitempty"`
	FallbackStage string `json:"fallback,omitempty"`

	// SanitizeConfidence is the lowest per-link admission confidence
	// (1 = every burst clean; the sanitizer's floor is 0.05).
	SanitizeConfidence float64 `json:"sanitizeConf,omitempty"`

	// Est is the position estimate [x, y] in meters, present on "ok".
	Est []float64 `json:"est,omitempty"`

	// Session and Seq identify a tracking session epoch (/v1/track): Session
	// is the sticky session id, Seq the client's epoch sequence number.
	// Absent on stateless requests, so the record stays schema 1.
	Session string `json:"session,omitempty"`
	Seq     int64  `json:"seq,omitempty"`
	// Windowed/TrackFallback/Reacquired report the tracked pipeline's search
	// outcome for the epoch: prediction-shrunk window accepted, window
	// rejected and full search re-ran, or the filter re-anchored after
	// consecutive gate misses.
	Windowed      bool `json:"windowed,omitempty"`
	TrackFallback bool `json:"trackFallback,omitempty"`
	Reacquired    bool `json:"reacquired,omitempty"`
}

// EventLog writes RequestEvents as JSONL, bounded and droppable: Log encodes
// on the caller's goroutine (a few microseconds) and hands the line to a
// buffered channel a single writer goroutine drains, so a slow or wedged
// sink can never block the request path — under pressure events are dropped
// and counted instead. A nil *EventLog is the disabled fast path: Log is a
// nil-check no-op, mirroring the rest of the obs package.
type EventLog struct {
	ch      chan *eventLine
	done    chan struct{}
	w       io.Writer
	dropped atomic.Int64
	logged  atomic.Int64
	errs    atomic.Int64

	// mu guards the closed flag against the channel send: Log holds the
	// read side across its non-blocking send so Close's close(ch) (write
	// side) cannot race a logger mid-send — the same discipline the serving
	// layer uses for its admission queue.
	mu     sync.RWMutex
	closed bool
}

// NewEventLog returns an event log streaming JSONL to w. depth bounds the
// in-flight buffer (<= 0 selects 256); when the buffer is full Log drops.
// Call Close to flush and stop the writer goroutine.
func NewEventLog(w io.Writer, depth int) *EventLog {
	if depth <= 0 {
		depth = 256
	}
	l := &EventLog{
		ch:   make(chan *eventLine, depth),
		done: make(chan struct{}),
		w:    w,
	}
	go l.drain()
	return l
}

func (l *EventLog) drain() {
	defer close(l.done)
	for line := range l.ch {
		if _, err := l.w.Write(line.buf.Bytes()); err != nil {
			l.errs.Add(1)
		}
		line.release()
	}
}

// eventLine is one encoded event on its way to the writer goroutine. Log
// takes it from linePool and the writer gives it back after the write, so a
// logged event allocates nothing once the pool is warm.
type eventLine struct {
	buf bytes.Buffer
	enc *json.Encoder
	// ev is the event being encoded; a field, so handing it to the encoder
	// boxes a pointer instead of copying the event to the heap.
	ev RequestEvent
}

// maxPooledLine bounds the lines linePool keeps; an event with a longer
// error message is encoded once and dropped.
const maxPooledLine = 64 << 10

var linePool = sync.Pool{New: func() any {
	line := new(eventLine)
	line.enc = json.NewEncoder(&line.buf)
	return line
}}

func (line *eventLine) release() {
	if line.buf.Cap() <= maxPooledLine {
		linePool.Put(line)
	}
}

// Log records one event. It never blocks: when the buffer is full the event
// is dropped and counted in Dropped. The return reports whether the event
// was enqueued (a nil log reports false without counting a drop). ev.Schema
// is stamped automatically when zero.
func (l *EventLog) Log(ev RequestEvent) bool {
	if l == nil {
		return false
	}
	if ev.Schema == 0 {
		ev.Schema = RequestEventSchema
	}
	// Encoder.Encode writes exactly json.Marshal's bytes plus the newline.
	line := linePool.Get().(*eventLine)
	line.buf.Reset()
	line.ev = ev
	err := line.enc.Encode(&line.ev)
	line.ev = RequestEvent{}
	if err != nil {
		l.errs.Add(1)
		line.release()
		return false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		l.dropped.Add(1)
		line.release()
		return false
	}
	select {
	case l.ch <- line:
		l.logged.Add(1)
		return true
	default:
		l.dropped.Add(1)
		line.release()
		return false
	}
}

// Logged returns how many events were accepted for writing (0 for nil).
func (l *EventLog) Logged() int64 {
	if l == nil {
		return 0
	}
	return l.logged.Load()
}

// Dropped returns how many events were discarded because the buffer was
// full (0 for nil).
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// WriteErrors returns how many events failed to encode or write (0 for nil).
func (l *EventLog) WriteErrors() int64 {
	if l == nil {
		return 0
	}
	return l.errs.Load()
}

// Bind exports the log's health counters into reg as gauges refreshed on
// every snapshot — obs.eventlog.logged_total, obs.eventlog.dropped_total,
// and obs.eventlog.write_errors_total — so a scrape shows when the bounded
// log is shedding events instead of the counter sitting invisible in the
// process. Nil-safe on both sides.
func (l *EventLog) Bind(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	logged := reg.Gauge("obs.eventlog.logged_total")
	dropped := reg.Gauge("obs.eventlog.dropped_total")
	errs := reg.Gauge("obs.eventlog.write_errors_total")
	reg.OnSnapshot(func() {
		logged.Set(float64(l.Logged()))
		dropped.Set(float64(l.Dropped()))
		errs.Set(float64(l.WriteErrors()))
	})
}

// Close flushes buffered events and stops the writer goroutine. Log calls
// racing Close are dropped (and counted), never panicked. Safe on nil and
// idempotent.
func (l *EventLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if !already {
		close(l.ch)
	}
	<-l.done
}

// DecodeRequestEvent parses one JSONL line into a RequestEvent, rejecting
// records whose schema version this package does not understand.
func DecodeRequestEvent(line []byte) (RequestEvent, error) {
	var ev RequestEvent
	if err := json.Unmarshal(line, &ev); err != nil {
		return RequestEvent{}, fmt.Errorf("obs: decode request event %.80q: %w", line, err)
	}
	if ev.Schema < 1 || ev.Schema > RequestEventSchema {
		return RequestEvent{}, fmt.Errorf("obs: request event schema %d outside [1,%d]", ev.Schema, RequestEventSchema)
	}
	return ev, nil
}

// ReadRequestEvents decodes a JSONL request-event stream — the round-trip
// counterpart of EventLog's output, used by roastat and tests. Blank lines
// are skipped; a malformed or version-incompatible line fails the read.
func ReadRequestEvents(r io.Reader) ([]RequestEvent, error) {
	var out []RequestEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := DecodeRequestEvent(line)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan request events: %w", err)
	}
	return out, nil
}
