//go:build race

package msg

// poisonReleased makes Release overwrite a frame buffer before it is
// listed for reuse: the race builds are where the test suite runs, and a
// read of a released buffer should fail their checksums loudly.
const poisonReleased = true
