package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDiagConcurrencyHammer drives every self-diagnosis component at once the
// way the serving process does — request goroutines feeding the flight
// recorder through the tracer mirror, the trigger engine's background loop
// sampling the runtime collector, and scrapes snapshotting the registry —
// so the RACE_PKGS sweep exercises all the cross-component locking.
func TestDiagConcurrencyHammer(t *testing.T) {
	reg := NewRegistry()
	col := NewRuntimeCollector(reg, time.Millisecond)
	rec := NewFlightRecorder(32, 64)
	rec.Bind(reg)
	tr := NewTracer(nil)
	tr.Mirror(rec.RecordSpan)
	w, err := NewBundleWriter(BundleConfig{
		Dir:                t.TempDir(),
		MaxBundles:         2,
		CPUProfileDuration: time.Millisecond,
		Registry:           reg,
		Recorder:           rec,
		Runtime:            col,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewTriggerEngine(TriggerConfig{
		Interval:  time.Millisecond,
		Cooldown:  10 * time.Millisecond,                // refire so captures overlap traffic
		OnTrigger: func(r TriggerReason) { w.Write(r) }, //nolint:errcheck // best effort under the hammer
	}, GoroutineSignal(col, 1)) // always fires: the hammer has many goroutines
	e.Bind(reg)
	e.Start()
	defer e.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("g%d-%d", g, i)
				ctx, sp := StartSpan(WithTracer(WithRequestID(context.Background(), id), tr), "serve.request")
				_, inner := StartSpan(ctx, "core.solve")
				inner.End()
				sp.End()
				rec.RecordRequest(RequestEvent{ID: id, Outcome: "ok", Status: 200})
				i++
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
				col.History()
				rec.Requests()
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	e.Stop()

	fired, _, _ := e.Stats()
	if fired == 0 {
		t.Fatal("hammer never triggered a capture")
	}
	if nr, ns := rec.Totals(); nr == 0 || ns == 0 {
		t.Fatalf("recorder totals %d/%d", nr, ns)
	}
}
