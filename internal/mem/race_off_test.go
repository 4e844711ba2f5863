//go:build !race

package mem

// See race_on_test.go.
const raceDetectorEnabled = false
