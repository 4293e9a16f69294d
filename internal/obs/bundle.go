package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// BundleMetaSchema versions the bundle meta.json record.
const BundleMetaSchema = 1

// BundleMeta is a diagnostic bundle's meta.json: what fired, when the
// capture ran, and what the bundle contains. CPUProfileError is non-empty
// when the CPU profile could not be taken (e.g. another profiler was active);
// the rest of the bundle is still written.
type BundleMeta struct {
	Schema          int           `json:"schema"`
	Reason          TriggerReason `json:"reason"`
	CapturedUnixNs  int64         `json:"capturedNs"`
	CPUProfileMs    float64       `json:"cpuProfileMs"`
	CPUProfileError string        `json:"cpuProfileError,omitempty"`
	GoVersion       string        `json:"goVersion"`
	PID             int           `json:"pid"`
	Requests        int           `json:"requests"`
	Spans           int           `json:"spans"`
	RuntimeSamples  int           `json:"runtimeSamples"`
}

// Bundle file names, shared by the writer, the e2e gates, and roastat.
const (
	BundleMetaFile     = "meta.json"
	BundleCPUFile      = "cpu.pprof"
	BundleHeapFile     = "heap.pprof"
	BundleGorosFile    = "goroutine.pprof"
	BundleMetricsFile  = "metrics.json"
	BundleRequestsFile = "requests.jsonl"
	BundleSpansFile    = "spans.jsonl"
	BundleRuntimeFile  = "runtime.jsonl"
)

// bundlePrefix names bundle directories; the timestamp layout sorts
// lexicographically in capture order, so eviction and "newest" selection are
// plain string sorts.
const (
	bundlePrefix     = "bundle-"
	bundleTimeLayout = "20060102T150405.000"
)

// BundleConfig parameterizes a BundleWriter.
type BundleConfig struct {
	// Dir is the on-disk bundle directory (created if missing). Required.
	Dir string
	// MaxBundles bounds how many bundles the directory retains; writing a new
	// one evicts the oldest beyond the bound. <= 0 selects 8.
	MaxBundles int
	// CPUProfileDuration is how long the capture samples CPU; the capture
	// blocks for this long. <= 0 selects 1 s.
	CPUProfileDuration time.Duration
	// Registry, Recorder, and Runtime are the telemetry sources snapshotted
	// into the bundle; each may be nil (its file is then omitted).
	Registry *Registry
	Recorder *FlightRecorder
	Runtime  *RuntimeCollector
}

// BundleWriter captures diagnostic bundles: a timestamped directory holding
// CPU/heap/goroutine pprof profiles, the flight-recorder ring dump, the full
// metrics snapshot, the runtime sample history, and the trigger reason.
type BundleWriter struct {
	cfg BundleConfig
	mu  sync.Mutex // serializes captures; profiles cannot overlap anyway
}

// NewBundleWriter validates cfg, creates the bundle directory, and returns
// the writer.
func NewBundleWriter(cfg BundleConfig) (*BundleWriter, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: bundle config needs a directory")
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 8
	}
	if cfg.CPUProfileDuration <= 0 {
		cfg.CPUProfileDuration = time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: create bundle dir: %w", err)
	}
	return &BundleWriter{cfg: cfg}, nil
}

// Write captures one bundle and returns its directory path. The capture
// blocks for the CPU profiling window. Concurrent calls serialize.
func (b *BundleWriter) Write(reason TriggerReason) (string, error) {
	if b == nil {
		return "", fmt.Errorf("obs: nil bundle writer")
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	now := time.Now()
	name := bundlePrefix + now.UTC().Format(bundleTimeLayout) + "-" + sanitizeBundleTag(reason.Signal)
	dir := filepath.Join(b.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: create bundle: %w", err)
	}

	meta := BundleMeta{
		Schema:         BundleMetaSchema,
		Reason:         reason,
		CapturedUnixNs: now.UnixNano(),
		GoVersion:      runtime.Version(),
		PID:            os.Getpid(),
	}

	// CPU profile first: it needs wall time, and the heap/goroutine/ring
	// snapshots taken after it describe the anomaly's aftermath too.
	if err := b.writeCPUProfile(filepath.Join(dir, BundleCPUFile)); err != nil {
		meta.CPUProfileError = err.Error()
	} else {
		meta.CPUProfileMs = b.cfg.CPUProfileDuration.Seconds() * 1e3
	}

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(writeProfile(filepath.Join(dir, BundleHeapFile), "heap"))
	keep(writeProfile(filepath.Join(dir, BundleGorosFile), "goroutine"))

	if b.cfg.Registry != nil {
		keep(writeFileWith(filepath.Join(dir, BundleMetricsFile), b.cfg.Registry.WriteJSON))
	}
	if b.cfg.Recorder != nil {
		reqs := b.cfg.Recorder.Requests()
		spans := b.cfg.Recorder.Spans()
		meta.Requests, meta.Spans = len(reqs), len(spans)
		keep(writeJSONL(filepath.Join(dir, BundleRequestsFile), len(reqs), func(i int) any { return reqs[i] }))
		keep(writeJSONL(filepath.Join(dir, BundleSpansFile), len(spans), func(i int) any { return spans[i] }))
	}
	if b.cfg.Runtime != nil {
		hist := b.cfg.Runtime.History()
		meta.RuntimeSamples = len(hist)
		keep(writeJSONL(filepath.Join(dir, BundleRuntimeFile), len(hist), func(i int) any { return hist[i] }))
	}

	metaRaw, err := json.MarshalIndent(meta, "", "  ")
	keep(err)
	if err == nil {
		keep(os.WriteFile(filepath.Join(dir, BundleMetaFile), append(metaRaw, '\n'), 0o644))
	}

	keep(evictOldBundles(b.cfg.Dir, b.cfg.MaxBundles))
	return dir, firstErr
}

func (b *BundleWriter) writeCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile (ours or an external pprof scrape) is active;
		// leave an empty file and record why in the meta.
		return err
	}
	time.Sleep(b.cfg.CPUProfileDuration)
	pprof.StopCPUProfile()
	return nil
}

func writeProfile(path, name string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("obs: no %s profile", name)
	}
	return writeFileWith(path, func(w io.Writer) error { return p.WriteTo(w, 0) })
}

func writeFileWith(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONL(path string, n int, record func(int) any) error {
	return writeFileWith(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for i := 0; i < n; i++ {
			if err := enc.Encode(record(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// sanitizeBundleTag makes a trigger signal name safe as a path component.
func sanitizeBundleTag(s string) string {
	if s == "" {
		return "manual"
	}
	out := []byte(s)
	for i := range out {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			out[i] = '_'
		}
	}
	const max = 48
	if len(out) > max {
		out = out[:max]
	}
	return string(out)
}

// ListBundles returns the bundle directories under dir, oldest first (the
// name embeds a sortable timestamp).
func ListBundles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), bundlePrefix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// ReadBundleMeta loads and validates a bundle's meta.json.
func ReadBundleMeta(bundleDir string) (BundleMeta, error) {
	raw, err := os.ReadFile(filepath.Join(bundleDir, BundleMetaFile))
	if err != nil {
		return BundleMeta{}, err
	}
	var m BundleMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return BundleMeta{}, fmt.Errorf("obs: parse bundle meta: %w", err)
	}
	if m.Schema < 1 || m.Schema > BundleMetaSchema {
		return BundleMeta{}, fmt.Errorf("obs: bundle meta schema %d outside [1,%d]", m.Schema, BundleMetaSchema)
	}
	return m, nil
}

// evictOldBundles removes the oldest bundles beyond the retention bound.
func evictOldBundles(dir string, max int) error {
	bundles, err := ListBundles(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for len(bundles) > max {
		if err := os.RemoveAll(bundles[0]); err != nil && firstErr == nil {
			firstErr = err
		}
		bundles = bundles[1:]
	}
	return firstErr
}
