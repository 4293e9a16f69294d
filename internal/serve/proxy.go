package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"roarray/internal/obs"
)

// ProxyConfig parameterizes a Proxy.
type ProxyConfig struct {
	// Backends are the downstream roaserve base URLs (e.g.
	// "http://127.0.0.1:8081"; a bare host:port is taken as http); at least
	// one is required. Venue IDs map to backends by the same consistent-hash
	// construction the in-process shard router uses, so a fleet of proxies
	// agrees on ownership without coordination.
	Backends []string
	// Replicas sets the ring's virtual points per backend (<= 0 selects 64).
	Replicas int
	// Timeout bounds one proxied request (<= 0 selects 60 s).
	Timeout time.Duration
	// Metrics receives proxy.* routing counters. Nil disables recording.
	Metrics *obs.Registry
}

// Proxy is the cross-process shard router: it peeks at a request's venueId,
// picks the owning backend off the hash ring, and forwards the request
// verbatim — responses (including error statuses, Retry-After advice, and
// the X-Request-Id echo) pass back untouched, so a client cannot tell a
// proxied deployment from a direct one.
type Proxy struct {
	cfg    ProxyConfig
	ring   *Ring
	client *http.Client
	mux    *http.ServeMux

	// The routing counters; nil (counting nothing) without Metrics.
	forwarded  *obs.Counter
	transport  *obs.Counter
	perBackend map[string]*obs.Counter
}

// NewProxy validates cfg and builds the router.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("serve: proxy needs at least one backend")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	cfg.Backends = append([]string(nil), cfg.Backends...)
	for i, b := range cfg.Backends {
		if !strings.Contains(b, "://") {
			cfg.Backends[i] = "http://" + b
		}
	}
	ring, err := NewRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:    cfg,
		ring:   ring,
		client: &http.Client{Timeout: cfg.Timeout},
	}
	if cfg.Metrics != nil {
		p.forwarded = cfg.Metrics.Counter("proxy.forwarded_total")
		p.transport = cfg.Metrics.Counter("proxy.transport_errors_total")
		p.perBackend = make(map[string]*obs.Counter, len(cfg.Backends))
		for i, b := range cfg.Backends {
			p.perBackend[b] = cfg.Metrics.Counter(fmt.Sprintf("proxy.backend.%d.forwarded_total", i))
		}
	}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("/v1/localize", p.forward)
	p.mux.HandleFunc("/v1/track", p.forward)
	p.mux.HandleFunc("/healthz", handleStaticOK("ok"))
	p.mux.HandleFunc("/readyz", handleStaticOK("ready"))
	return p, nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

func handleStaticOK(msg string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, msg)
	}
}

// venuePeek extracts just the routing key from a request body.
type venuePeek struct {
	VenueID string `json:"venueId"`
}

// peekVenueID returns the venue id a request body routes on: exactly the
// VenueID that json.Unmarshal fills into a venuePeek, with its error ignored
// (so invalid JSON routes as ""). A body in the canonical form clients send
// is walked by the wire scanner, which reads venueId and skips every other
// value unparsed; anything it does not accept is unmarshalled.
func peekVenueID(body []byte) string {
	s := wireScanner{b: body}
	if id, ok := s.venueID(); ok {
		return string(id)
	}
	var peek venuePeek
	json.Unmarshal(body, &peek) //nolint:errcheck // backend re-validates
	return peek.VenueID
}

// forward routes POST /v1/localize and /v1/track to the backend owning the
// body's venue, on the same path. A tracking session stays on one backend
// because sessions are bound to their venue.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read request: %v", err))
		return
	}
	// Route on the venue id alone; a body the backend will reject (bad JSON,
	// missing fields) still routes — the backend owns validation and its
	// error message, the proxy only owns placement. An empty id routes
	// deterministically too, so single-venue traffic through a proxy always
	// lands on one backend and keeps its micro-batching.
	backend := p.ring.Owner(peekVenueID(body))

	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, backend+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := r.Header.Get("X-Request-Id"); rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.transport.Inc()
		writeError(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", backend, err))
		return
	}
	defer resp.Body.Close()
	p.forwarded.Inc()
	p.perBackend[backend].Inc()
	for _, h := range []string{"Content-Type", "X-Request-Id", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // nothing to do about a client gone mid-write
}
