//go:build race

package gateway

// raceEnabled lets allocation-budget tests stand down under the race
// detector, which allocates on its own account.
const raceEnabled = true
