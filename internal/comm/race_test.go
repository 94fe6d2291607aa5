//go:build race

package comm

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back, so pooled-buffer allocation counts do not hold.
const raceEnabled = true
