//go:build race

package serve

// raceEnabled mirrors the race build tag: under the race detector
// sync.Pool drops a fraction of Puts at random, so allocation counts of
// the pooled encoders are not deterministic there.
const raceEnabled = true
