package wireless

import "roarray/internal/obs"

// Generated-packet metric names: RecordGenerated's series.
const (
	metricPacketsTotal = "wireless.packets_total"
	metricSNRdB        = "wireless.snr_db"
)

// snrBuckets spans the paper's SNR bands (low <= 2 dB, medium (2,15) dB,
// high >= 15 dB) in 5 dB steps from -10 to 40.
func snrBuckets() []float64 { return obs.LinearBuckets(-10, 5, 11) }

// RecordGenerated notes n packets synthesized by Generate/GenerateBurst
// (whose callers manage the RNG stream themselves) at the link's configured
// SNR: it increments "wireless.packets_total" and records into the
// "wireless.snr_db" histogram, giving the workload's SNR-band mix (the
// paper's high/medium/low split) directly from /metrics. A nil registry is a
// no-op.
func RecordGenerated(reg *obs.Registry, snrDB float64, n int) {
	if reg == nil || n <= 0 {
		return
	}
	reg.Counter(metricPacketsTotal).Add(int64(n))
	h := reg.Histogram(metricSNRdB, snrBuckets()...)
	for i := 0; i < n; i++ {
		h.Observe(snrDB)
	}
}
