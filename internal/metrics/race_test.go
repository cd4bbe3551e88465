//go:build race

package metrics

// raceEnabled reports a race-detector build, whose instrumentation
// allocates on its own; allocation counts there measure the detector.
const raceEnabled = true
