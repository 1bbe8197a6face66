//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops a random share of
// the buffers put back, so allocation counts there are not steady.
const raceEnabled = true
