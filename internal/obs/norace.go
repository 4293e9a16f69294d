//go:build !race

package obs

// raceEnabled reports a -race build. A span then ends its life poisoned
// instead of going back to the pool, so any later use of it panics (see
// Span.recycle).
const raceEnabled = false
