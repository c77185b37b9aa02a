//go:build !race

package syncmp_test

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops a quarter of the objects put back, at random.
const raceEnabled = false
