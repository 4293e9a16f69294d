//go:build !race

package serve

// raceEnabled reports a -race build. A released request context is then
// poisoned until its arena serves another request (see reqCtx), and
// sync.Pool drops a random share of the arenas it is handed, so allocation
// counts do not hold.
const raceEnabled = false
