// Record codec for the write-ahead log (docs/STORAGE.md). Every durable
// mutation of a peer's store is one length-prefixed, CRC32C-checksummed
// record appended to the active segment:
//
//	length  uint32  body length in bytes (big endian, like the wire codec)
//	crc     uint32  CRC32C (Castagnoli) of the body
//	body:
//	  op      uint8   opPut / opTombstone / opDelete / opRetire
//	  kind    uint8   store.Inserted / store.Replica (put only, else 0)
//	  version uint64  copy or tombstone version (delete: 0)
//	  at      int64   tombstone record time, unix nanoseconds (else 0)
//	  nameLen uint16, name bytes
//	  dataLen uint32, data bytes (put only; absent otherwise)
//
// The checksum is what makes crash recovery honest: a torn tail write
// fails the CRC (or the length runs past EOF) and replay truncates there,
// so the rebuilt index is exactly the longest valid record prefix — no
// half-applied mutation is ever served.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"lesslog/internal/store"
)

// op discriminates the mutation a record carries.
type op uint8

const (
	// opPut stores (or overwrites) a copy: name, data, version, kind.
	opPut op = 1
	// opTombstone erases a copy and records a versioned delete marker
	// that survives restart, so a crash cannot resurrect a deleted name.
	opTombstone op = 2
	// opDelete removes a copy locally with no tombstone — the replica
	// eviction / post-handoff cleanup path (store.Delete semantics).
	opDelete op = 3
	// opRetire is the departure barrier (§5.2 Leave): everything logged
	// before it — copies and tombstones alike — is retired. One record
	// replaces the per-name opDelete flood a graceful leave would
	// otherwise append, and replay honors it by clearing the rebuilt
	// store, so a retired peer restarts empty instead of re-announcing
	// copies the fabric already re-homed. It carries no name or data,
	// just the departure time.
	opRetire op = 4
)

// Size limits mirror the wire protocol's (internal/msg): nothing larger
// can arrive over the network, so nothing larger belongs in the log.
const (
	maxName = 4 << 10
	maxData = 16 << 20
)

// bodyHeader is the fixed prefix of every record body:
// op(1) + kind(1) + version(8) + at(8) + nameLen(2).
const bodyHeader = 1 + 1 + 8 + 8 + 2

// recHeader is the length + crc prefix before every body.
const recHeader = 4 + 4

// maxHead is the longest a record body runs before its payload: the fixed
// prefix, the largest name, and a put's dataLen.
const maxHead = bodyHeader + maxName + 4

// maxBody bounds a plausible record body; replay treats anything larger
// as corruption rather than attempting the allocation.
const maxBody = maxHead + maxData

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded log entry.
type record struct {
	op      op
	kind    store.Kind
	version uint64
	at      int64 // unix nanoseconds; tombstones only
	name    string
	data    []byte
}

// errCorrupt marks a record replay must stop at.
var errCorrupt = errors.New("wal: corrupt record")

// check enforces the record size limits: an oversize name or payload is
// surfaced as an error, never written as a silently truncated record.
func (r record) check() error {
	if len(r.name) > maxName {
		return fmt.Errorf("wal: name %.40q... exceeds %d bytes", r.name, maxName)
	}
	if len(r.data) > maxData {
		return fmt.Errorf("wal: payload of %q is %d bytes, over the %d-byte record cap", r.name, len(r.data), maxData)
	}
	return nil
}

// payload is the data a record carries on disk: a put's, nothing otherwise.
func (r record) payload() []byte {
	if r.op == opPut {
		return r.data
	}
	return nil
}

// appendRecordHead encodes everything of a checked record that precedes
// its payload onto b — length, crc (which already covers the payload), and
// the body up to and including dataLen — and returns the extended slice.
// The record is complete once r.payload() follows, so a large payload can
// go to the file from where it lives instead of through the encode buffer.
func appendRecordHead(b []byte, r record) []byte {
	bodyLen := bodyHeader + len(r.name)
	if r.op == opPut {
		bodyLen += 4 + len(r.data)
	}
	start := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(bodyLen))
	b = binary.BigEndian.AppendUint32(b, 0) // crc backfilled below
	bodyStart := len(b)
	b = append(b, byte(r.op), byte(r.kind))
	b = binary.BigEndian.AppendUint64(b, r.version)
	b = binary.BigEndian.AppendUint64(b, uint64(r.at))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.name)))
	b = append(b, r.name...)
	if r.op == opPut {
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.data)))
	}
	crc := crc32.Update(crc32.Checksum(b[bodyStart:], castagnoli), castagnoli, r.payload())
	binary.BigEndian.PutUint32(b[start+4:], crc)
	return b
}

// appendRecord encodes r whole (header + crc + body) onto b.
func appendRecord(b []byte, r record) ([]byte, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	return append(appendRecordHead(b, r), r.payload()...), nil
}

// decodeHead parses a record body up to its payload — the fixed prefix, the
// name and, for a put, the payload length — from head, the first
// min(bodyLen, maxHead) bytes of a body bodyLen long, and checks that the
// fields account for exactly bodyLen bytes. The payload is the body's last
// dataLen bytes; the caller checksums it and loads or skips it (readRecord).
func decodeHead(head []byte, bodyLen int) (r record, dataLen int, err error) {
	if len(head) < bodyHeader {
		return record{}, 0, errCorrupt
	}
	r = record{
		op:      op(head[0]),
		kind:    store.Kind(head[1]),
		version: binary.BigEndian.Uint64(head[2:10]),
		at:      int64(binary.BigEndian.Uint64(head[10:18])),
	}
	nameLen := int(binary.BigEndian.Uint16(head[18:20]))
	rest := head[bodyHeader:]
	if nameLen > maxName || nameLen > len(rest) {
		return record{}, 0, errCorrupt
	}
	r.name = string(rest[:nameLen])
	rest = rest[nameLen:]
	after := bodyLen - bodyHeader - nameLen // body bytes past the name
	switch r.op {
	case opPut:
		if r.kind != store.Inserted && r.kind != store.Replica {
			return record{}, 0, errCorrupt
		}
		if len(rest) < 4 {
			return record{}, 0, errCorrupt
		}
		dataLen = int(binary.BigEndian.Uint32(rest[:4]))
		if dataLen > maxData || dataLen != after-4 {
			return record{}, 0, errCorrupt
		}
	case opTombstone, opDelete:
		if after != 0 {
			return record{}, 0, errCorrupt
		}
	case opRetire:
		if nameLen != 0 || after != 0 {
			return record{}, 0, errCorrupt
		}
	default:
		return record{}, 0, errCorrupt
	}
	return r, dataLen, nil
}

// apply replays one record into st — the recovery half of the engine.
// Replay order is log order, so a plain Put is correct (later records
// supersede earlier ones the same way they did live). Tombstones restore
// unconditionally: after compaction a tombstone may be the only record a
// name has, and store.Tombstone would drop it as a no-op.
func (r record) apply(st *store.Store) {
	switch r.op {
	case opPut:
		st.Put(store.File{Name: r.name, Data: r.data, Version: r.version}, r.kind)
	case opTombstone:
		st.RestoreTombstone(r.name, r.version, time.Unix(0, r.at))
	case opDelete:
		st.Delete(r.name)
	case opRetire:
		st.DiscardAll()
	}
}
