//go:build race

package core

// raceEnabled reports a race-detector build. The detector makes sync.Pool
// discard pooled items at random, so allocation counts there measure the
// detector rather than the code.
const raceEnabled = true
