//go:build race

package store_test

// raceEnabled reports whether the race detector is compiled into this
// test binary; under it sync.Pool drops entries at random, so pooled
// allocation figures are not meaningful.
const raceEnabled = true
