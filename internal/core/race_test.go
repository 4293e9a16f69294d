//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of the workspaces it is handed, so allocation counts do not hold.
const raceEnabled = true
