//go:build !race

package sim

// raceDetectorEnabled reports whether this test binary was built with
// -race.
const raceDetectorEnabled = false
