//go:build !race

package sim_test

// See race_on_test.go.
const raceDetectorEnabled = false
