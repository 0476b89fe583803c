//go:build race

package live

// raceDetector: sync.Pool drops a quarter of its Puts at random under the
// detector, so an allocation bound is looser there.
const raceDetector = true
