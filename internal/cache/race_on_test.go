//go:build race

package cache

// Under the race detector sync.Pool drops what it is given at random, so
// a count over pooled buffers is not repeatable.
func init() { raceOn = true }
