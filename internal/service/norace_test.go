//go:build !race

package service

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of its items and allocation counts say nothing.
const raceEnabled = false
