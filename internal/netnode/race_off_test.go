//go:build !race

package netnode

const raceEnabled = false
