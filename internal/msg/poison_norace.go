//go:build !race

package msg

const poisonReleased = false
