//go:build race

package vet_test

// raceDetectorEnabled mirrors the build's -race flag: the race
// detector's instrumentation allocates, so the allocation guard bows
// out under it.
const raceDetectorEnabled = true
