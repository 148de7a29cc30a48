//go:build race

package optim

// raceDetector is true under -race, whose instrumentation allocates.
const raceDetector = true
