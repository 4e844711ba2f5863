//go:build !race

package vet_test

// See race_on_test.go.
const raceDetectorEnabled = false
