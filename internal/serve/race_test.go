//go:build race

package serve

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of the arenas it is handed, so allocation counts do not hold.
const raceEnabled = true
