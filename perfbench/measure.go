package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

// tailPercent is the tail percentile reported. Slow fixes come in bursts
// (a Poisson cluster or a big micro-batch delays every request queued
// behind it), so the samples beyond a high percentile are a handful of
// independent events, not independent samples: beyond p99 of a 50 s run lie
// about five bursts, and that figure moved by half from seed to seed. p90
// rests on a few hundred fixes from dozens of bursts, far above the ten
// samples beyond it the tail needs (checked per run; see endToEnd).
const tailPercent = 90.0

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, 0 when b is 0 (a layer the workload never exercises).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one measured region cost the process.
type window struct {
	start      time.Time
	period     time.Duration // slice length
	wall       time.Duration
	cpu        time.Duration
	bounds     []time.Duration // process CPU time at the slice boundaries
	allocBytes uint64
	gcCPU      float64 // GC CPU seconds / total CPU seconds in the window
	gcPauseP99 float64 // seconds, stop-the-world GC pauses in the window
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the window (0 where /proc/stat is not
	// readable): the interference the per-slice figures are there to absorb.
	stealShare float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

type rtState struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func readRuntime() rtState {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	st := rtState{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		st.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		st.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return st
}

// pauseP99 is the 99th percentile of the pauses recorded between a and b,
// read as the upper edge of the bucket it falls in.
func pauseP99(a, b rtState) float64 {
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.pauses.Counts))
	for i := range d {
		d[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range d {
		acc += c
		if acc >= want {
			edge := b.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.pauses.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

// sliceSeconds is the shortest slice. A run is cut into slices so that
// interference from outside the process (CPU stolen from a shared host)
// can be told apart from the code's own cost; see endToEnd. A 50 s run is
// seven slices of 7.1 s, each holding over 600 fixes at the workloads'
// rates (90-95 fixes/s).
const sliceSeconds = 7

// sliceCount cuts a run of length d into whole slices of about
// sliceSeconds; a run shorter than one slice is a single slice.
func sliceCount(d time.Duration) int {
	return max(1, int(d.Seconds()/sliceSeconds))
}

// measure runs fn as one measured region of nominal length d, starting from
// a collected heap so the previous region's garbage is not billed to this
// one. The process CPU time is also read at each slice boundary.
func measure(d time.Duration, fn func() error) (window, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rt0 := readRuntime()
	steal0 := stealTime()
	c0 := cpuTime()
	t0 := time.Now()
	n := sliceCount(d)
	period := d / time.Duration(n)
	stop, done := make(chan struct{}), make(chan struct{})
	bounds := []time.Duration{c0}
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for len(bounds) < n {
			select {
			case <-tick.C:
				bounds = append(bounds, cpuTime())
			case <-stop:
				return
			}
		}
	}()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	steal1 := stealTime()
	close(stop)
	<-done
	rt1 := readRuntime()
	runtime.ReadMemStats(&m1)
	return window{
		start:      t0,
		period:     period,
		wall:       wall,
		cpu:        c1 - c0,
		bounds:     append(bounds, c1),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCPU:      ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU),
		gcPauseP99: pauseP99(rt0, rt1),
		stealShare: ratio((steal1 - steal0).Seconds(), wall.Seconds()*float64(runtime.NumCPU())),
	}, err
}

// stealTime is the machine-wide CPU time stolen by the hypervisor so far,
// from the steal column of /proc/stat (USER_HZ ticks, 100 per second on
// Linux); 0 where the file is not readable.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// sliceStats is one slice of a run: the CPU spent per fix completed in it,
// and the latencies of the fixes completed in it.
type sliceStats struct {
	cpuMsPerFix float64
	latMs       []float64
}

// perSlice splits the region's fixes by completion time into its slices
// (the last slice runs to the region's end, so it also holds the fixes
// still in flight at the nominal end).
func (w window) perSlice(l *fixLog) []sliceStats {
	n := len(w.bounds) - 1
	out := make([]sliceStats, n)
	ok := make([]int, n)
	for i, at := range l.at {
		k := min(n-1, max(0, int(at.Sub(w.start)/w.period)))
		out[k].latMs = append(out[k].latMs, l.latMs[i])
		if l.okFix[i] {
			ok[k]++
		}
	}
	for k := range out {
		cpu := (w.bounds[k+1] - w.bounds[k]).Seconds() * 1e3
		out[k].cpuMsPerFix = ratio(cpu, float64(ok[k]))
	}
	return out
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupCost is the median cost of repeated constructions of a system.
type setupCost struct {
	seconds float64
	heapMB  float64
	reps    int
}

// measureSetup builds the system reps times and reports the median wall time
// and the median live heap each construction added. Every build but the
// last is torn down; the last one is returned for the measured run.
func measureSetup[S any](reps int, build func() (S, error), teardown func(S)) (S, setupCost, error) {
	var sys S
	var secs, heap []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(sys)
		}
		h0 := liveHeap()
		t0 := time.Now()
		s, err := build()
		dt := time.Since(t0)
		if err != nil {
			var zero S
			return zero, setupCost{}, err
		}
		sys = s
		h1 := liveHeap()
		secs = append(secs, dt.Seconds())
		heap = append(heap, (float64(h1)-float64(h0))/(1<<20))
	}
	return sys, setupCost{seconds: median(secs), heapMB: median(heap), reps: reps}, nil
}

// fixLog collects per-fix outcomes from concurrent callers.
type fixLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	latMs     []float64   // every attempted fix; failures included
	at        []time.Time // completion time of each attempted fix
	okFix     []bool      // whether each attempted fix succeeded
	okLatMs   []float64
	errM      []float64
	sloMet    int
	lateMs    []float64
	problems  []string
	status    map[int]int // attempted fixes by HTTP status
}

func newFixLog() *fixLog { return &fixLog{status: make(map[int]int)} }

// record notes one finished fix. ok means a valid answer came back; errM is
// its distance to ground truth.
func (l *fixLog) record(lat time.Duration, ok bool, errM float64, objective time.Duration, status int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ms := lat.Seconds() * 1e3
	l.attempted++
	l.latMs = append(l.latMs, ms)
	l.at = append(l.at, time.Now())
	l.okFix = append(l.okFix, ok)
	l.status[status]++
	if !ok {
		l.failed++
		return
	}
	l.okLatMs = append(l.okLatMs, ms)
	l.errM = append(l.errM, errM)
	if lat <= objective {
		l.sloMet++
	}
}

// late notes how far behind schedule a send went out.
func (l *fixLog) late(d time.Duration) {
	l.mu.Lock()
	l.lateMs = append(l.lateMs, d.Seconds()*1e3)
	l.mu.Unlock()
}

// problem records an output-correctness violation; any one fails the run.
func (l *fixLog) problem(msg string) {
	l.mu.Lock()
	if len(l.problems) < 20 {
		l.problems = append(l.problems, msg)
	} else if len(l.problems) == 20 {
		l.problems = append(l.problems, "... more problems elided")
	}
	l.mu.Unlock()
}
