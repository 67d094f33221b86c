//go:build race

package transport

// raceEnabled tells tests whether msg poisons returned read buffers (it
// does under the race detector, which also makes allocation counts
// meaningless).
const raceEnabled = true
