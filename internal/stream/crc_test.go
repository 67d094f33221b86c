package stream

import "hash/crc32"

// castagnoli is the tests' own CRC-32C table: the fake holders and the
// corruption cases seal frames with hash/crc32 directly, so they check
// crc32c against the standard library rather than against itself.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)
