//go:build race

package mem

// raceDetectorEnabled mirrors the build's -race flag: the race
// detector's instrumentation allocates, so the allocation guards bow
// out under it.
const raceDetectorEnabled = true
