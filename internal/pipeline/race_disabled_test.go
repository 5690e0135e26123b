//go:build !race

package pipeline

// raceDetectorEnabled reports whether this test binary was built with
// -race.
const raceDetectorEnabled = false
