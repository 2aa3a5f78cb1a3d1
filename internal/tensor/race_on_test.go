//go:build race

package tensor

// raceEnabled reports whether the race detector is instrumenting this build,
// whose sync.Pool drops a quarter of its puts.
const raceEnabled = true
