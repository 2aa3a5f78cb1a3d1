//go:build race

package dist

// raceEnabled reports whether the race detector is instrumenting this build;
// allocation counts are meaningless under -race.
const raceEnabled = true
