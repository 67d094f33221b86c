package netnode

import "hash/crc32"

// castagnoli is the tests' own CRC-32C table: raw frames are sealed and
// answers checked with hash/crc32 directly, so the tests hold crc32c to the
// standard library rather than to itself.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)
