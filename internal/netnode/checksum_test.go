package netnode

// The checksum rule's tests (docs/ROUTING.md "Checksums"): the staged-commit
// gate driven with raw KindPut frames, and the count that shows a body is
// passed over once per hop.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"sync"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/transport"
)

// rawPut lays a KindPut payload out by hand — op, token, offset, total, file
// CRC, chunk CRC, length-prefixed chunk — so a case can send what
// msg.AppendPutReq refuses to encode.
func rawPut(pr *msg.PutReq) []byte {
	b := []byte{byte(pr.Op)}
	b = binary.BigEndian.AppendUint64(b, pr.Token)
	b = binary.BigEndian.AppendUint64(b, pr.Offset)
	b = binary.BigEndian.AppendUint64(b, pr.TotalSize)
	b = binary.BigEndian.AppendUint32(b, pr.FileCRC)
	b = binary.BigEndian.AppendUint32(b, pr.ChunkCRC)
	b = binary.BigEndian.AppendUint32(b, uint32(len(pr.Chunk)))
	return append(b, pr.Chunk...)
}

// stagedRange is one PutData frame of a completeness case: the bytes sent at
// off. sealed frames carry the CRC of what they send, so only the whole-file
// gate can tell them from the declared body.
type stagedRange struct {
	off   int
	chunk []byte
}

// TestPutCommitCompleteness drives the staged-commit gate with raw frames:
// a commit lands only when the staged ranges tile the declared size exactly
// and sum to the declared whole-file CRC; every refusal leaves nothing in
// the store, the outbox or the staging table.
func TestPutCommitCompleteness(t *testing.T) {
	peers := startSystem(t, 2, 0, allPIDs(4), hashring.Fixed(1))
	entry := peers[0]
	const c = 16 << 10
	body := chunkPayload(3*c+1, 70)
	alt := chunkPayload(c, 71) // different bytes for the range at c
	flipped := append([]byte(nil), body[c:2*c]...)
	flipped[7] ^= 0xff
	withAlt := append(append(append([]byte(nil), body[:c]...), alt...), body[2*c:]...)
	whole := func(b []byte) []stagedRange {
		var rs []stagedRange
		for off := 0; off < len(b); off += c {
			rs = append(rs, stagedRange{off, b[off:min(off+c, len(b))]})
		}
		return rs
	}

	cases := []struct {
		name     string
		declared []byte        // the body whose size and CRC every frame declares
		ranges   []stagedRange // sent in order; the first opens the session
		// pastTotal sends one more data frame reaching past the declared
		// size; lieOnCommit flips the commit frame's file CRC.
		pastTotal, lieOnCommit bool
		want                   []byte // the stored body; nil: the commit is refused
	}{
		{name: "missing middle range", declared: body,
			ranges: []stagedRange{{0, body[:c]}, {2 * c, body[2*c:]}}},
		{name: "overlapping ranges", declared: body[:c+c/2], // staged bytes add up to the total
			ranges: []stagedRange{{0, body[:c]}, {c / 2, body[c/2 : c]}}},
		{name: "range past total", declared: body, pastTotal: true,
			ranges: whole(body)[:3]},
		{name: "flipped chunk re-sealed", declared: body,
			ranges: []stagedRange{{0, body[:c]}, {c, flipped}, {2 * c, body[2*c : 3*c]}, {3 * c, body[3*c:]}}},
		{name: "lying commit CRC", declared: body, lieOnCommit: true,
			ranges: whole(body)},
		{name: "retry with other bytes, declared the last", declared: withAlt, want: withAlt,
			ranges: []stagedRange{{0, body[:c]}, {c, body[c : 2*c]}, {c, alt}, {2 * c, body[2*c : 3*c]}, {3 * c, body[3*c:]}}},
		{name: "retry with other bytes, declared the first", declared: body,
			ranges: []stagedRange{{0, body[:c]}, {c, body[c : 2*c]}, {c, alt}, {2 * c, body[2*c : 3*c]}, {3 * c, body[3*c:]}}},
		{name: "empty body", declared: nil,
			ranges: []stagedRange{{0, nil}}},
		{name: "three chunks and a byte, out of order", declared: body, want: body,
			ranges: []stagedRange{{0, body[:c]}, {3 * c, body[3*c:]}, {2 * c, body[2*c : 3*c]}, {c, body[c : 2*c]}}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := "gate/" + string(rune('a'+i))
			pr := msg.PutReq{Op: msg.PutData, TotalSize: uint64(len(tc.declared)),
				FileCRC: crc32.Checksum(tc.declared, castagnoli)}
			put := func(pr msg.PutReq) *msg.Response {
				resp, err := NewClient(entry.Addr()).Do(&msg.Request{Kind: msg.KindPut, Name: name, Data: rawPut(&pr)}, false)
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			for _, r := range tc.ranges {
				pr.Offset, pr.Chunk, pr.ChunkCRC = uint64(r.off), r.chunk, crc32.Checksum(r.chunk, castagnoli)
				if resp := put(pr); resp.OK {
					pr.Token = resp.Version
				} else if len(tc.declared) != 0 {
					t.Fatalf("data frame at %d refused: %s", r.off, resp.Err)
				}
			}
			if tc.pastTotal {
				pr.Offset = pr.TotalSize - 1
				if resp := put(pr); resp.OK {
					t.Fatal("a data frame reaching past the declared size was staged")
				}
			}
			pr.Op, pr.Offset, pr.Chunk, pr.ChunkCRC = msg.PutInsert, 0, nil, 0
			if pr.Token == 0 {
				pr.Token = 1 << 40 // no session opened: any token is unknown
			}
			if tc.lieOnCommit {
				pr.FileCRC ^= 1
			}
			resp := put(pr)
			switch {
			case tc.want != nil:
				if !resp.OK {
					t.Fatalf("commit refused: %s", resp.Err)
				}
				got, err := NewLocateClient(peers[2].Addr()).Get(name)
				if err != nil || !bytes.Equal(got.Data, tc.want) {
					t.Fatalf("stored body: %d bytes, %v; want the %d declared", len(got.Data), err, len(tc.want))
				}
			case resp.OK:
				t.Fatal("commit acknowledged")
			case len(tc.declared) != 0 && !strings.Contains(resp.Err, "upload incomplete or corrupt"):
				t.Fatalf("commit refused with %q, want the completeness gate's refusal", resp.Err)
			}
			for pid, p := range peers {
				if tc.want == nil && p.store.Has(name) {
					t.Errorf("P(%d) stores the refused body", pid)
				}
				p.outbox.mu.Lock()
				parked := len(p.outbox.entries)
				p.outbox.mu.Unlock()
				p.uploads.mu.Lock()
				open := len(p.uploads.m)
				p.uploads.mu.Unlock()
				if parked != 0 || open != 0 {
					t.Errorf("P(%d) is left with %d outbox entries and %d staging sessions", pid, parked, open)
				}
			}
		})
	}

	// Two sessions stage at once, and every frame races a duplicate of
	// itself: each session has its own lock, and a retry landing beside its
	// original leaves the range summed once over the bytes that stay.
	t.Run("concurrent sessions", func(t *testing.T) {
		bodies := [][]byte{chunkPayload(8*c, 72), chunkPayload(8*c+5, 73)}
		var uploads sync.WaitGroup
		for i, b := range bodies {
			uploads.Add(1)
			go func(name string, b []byte) {
				defer uploads.Done()
				pr := msg.PutReq{Op: msg.PutData, TotalSize: uint64(len(b)), FileCRC: crc32.Checksum(b, castagnoli)}
				send := func(pr msg.PutReq) *msg.Response {
					resp, err := NewClient(entry.Addr()).Do(&msg.Request{Kind: msg.KindPut, Name: name, Data: rawPut(&pr)}, false)
					if err != nil || !resp.OK {
						t.Errorf("%s: frame at %d: %+v, %v", name, pr.Offset, resp, err)
						return &msg.Response{}
					}
					return resp
				}
				for _, r := range whole(b) {
					pr.Offset, pr.Chunk, pr.ChunkCRC = uint64(r.off), r.chunk, crc32.Checksum(r.chunk, castagnoli)
					if pr.Token == 0 {
						pr.Token = send(pr).Version // the opening frame, alone
					}
					var pair sync.WaitGroup
					for k := 0; k < 2; k++ {
						pair.Add(1)
						go func(pr msg.PutReq) {
							defer pair.Done()
							send(pr)
						}(pr)
					}
					pair.Wait()
				}
				pr.Op, pr.Offset, pr.Chunk, pr.ChunkCRC = msg.PutInsert, 0, nil, 0
				send(pr)
			}("gate/par"+string(rune('0'+i)), b)
		}
		uploads.Wait()
		for i, b := range bodies {
			got, err := NewLocateClient(peers[3].Addr()).Get("gate/par" + string(rune('0'+i)))
			if err != nil || !bytes.Equal(got.Data, b) {
				t.Fatalf("upload %d read back %d bytes, %v", i, len(got.Data), err)
			}
		}
	})
}

// TestBodyChecksummedOncePerHop counts CRC-32C passes over body bytes across
// the client and every peer: a body moved by the chunk planes is summed once
// by whoever sends a byte and once by whoever receives it, and nowhere else.
// The counts repeat exactly — they are the mechanism behind bulk_32m's
// set-up and per-op times, independent of the runner.
func TestBodyChecksummedOncePerHop(t *testing.T) {
	if raceEnabled {
		t.Skip("moves 17 MiB bodies through the fabric; the counts do not depend on the detector")
	}
	if testing.Short() {
		t.Skip("moves 17 MiB bodies through the fabric")
	}
	peers := startSystem(t, 3, 1, allPIDs(8), hashring.Fixed(2))
	tr := transport.New(transport.Config{}, nil)
	t.Cleanup(func() { tr.Close() })
	big := chunkPayload(msg.MaxData+1<<20, 80) // over one frame: four 5 MiB client chunks
	one := chunkPayload(1<<20, 81)             // one chunk

	passes := func(cl *Client) uint64 {
		n := cl.StreamStats().ChecksummedBytes.Load() + cl.UploadStats().ChecksummedBytes.Load()
		for _, p := range peers {
			n += p.StatSnapshot().ChecksummedBytes
		}
		return n
	}
	measure := func(cl *Client, what string, payload, bound int, op func()) {
		t.Helper()
		before := passes(cl)
		op()
		got := passes(cl) - before
		t.Logf("%s: %d bytes checksummed, %.2f× the payload", what, got, float64(got)/float64(payload))
		if got > uint64(bound*payload) {
			t.Errorf("%s checksummed %.2f× the payload, bound %d×", what, float64(got)/float64(payload), bound)
		}
	}

	// The entry peer holds no copy: the body is staged there, parked, and
	// pulled by the primary holder of each of the two subtrees.
	var entry bitops.PID
	holds := map[bitops.PID]bool{}
	if err := NewClient(peers[0].Addr()).Insert("sum/probe", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, h := range holdersOf(peers, "sum/probe") {
		holds[h] = true
	}
	for holds[entry] {
		entry++
	}
	cl := NewLocateClientWith(peers[entry].Addr(), tr, LocateOptions{ChunkSize: 5 << 20})

	measure(cl, "insert through a non-holder entry", len(big), 6, func() {
		if err := cl.Insert("sum/big", big); err != nil {
			t.Fatal(err)
		}
	})
	if peers[entry].store.Has("sum/big") || len(holdersOf(peers, "sum/big")) != 2 {
		t.Fatalf("holders %v with entry P(%d): want two holders, the entry not one", holdersOf(peers, "sum/big"), entry)
	}
	measure(cl, "get, sums remembered", len(big), 2, func() {
		if res, err := cl.Get("sum/big"); err != nil || !bytes.Equal(res.Data, big) {
			t.Fatalf("get: %d bytes, %v", len(res.Data), err)
		}
	})
	atHolder := sumWriteStat(peers, func(s *Stats) uint64 { return s.WritesAtHolder.Load() })
	big[0] ^= 0xff
	measure(cl, "hinted update", len(big), 4, func() {
		if n, err := cl.Update("sum/big", big); err != nil || n != 2 {
			t.Fatalf("update touched %d copies, %v", n, err)
		}
	})

	// The sums the holders remembered moved on with the body.
	if res, err := cl.Get("sum/big"); err != nil || !bytes.Equal(res.Data, big) {
		t.Fatalf("readback after update: %d bytes, %v", len(res.Data), err)
	}

	// A body that fits one frame rides each placement inline: no pull, so
	// no pass at either end of it.
	pulls := sumWriteStat(peers, func(s *Stats) uint64 { return s.NotifyPulls.Load() })
	measure(cl, "one-chunk insert, placed inline", len(one), 0, func() {
		if err := cl.Insert("sum/one", one); err != nil {
			t.Fatal(err)
		}
	})
	if got := sumWriteStat(peers, func(s *Stats) uint64 { return s.NotifyPulls.Load() }) - pulls; got != 0 {
		t.Fatalf("%d pulls placing a one-chunk body, want 0", got)
	}
	if _, err := cl.Get("sum/one"); err != nil { // leaves the hint the update enters by
		t.Fatal(err)
	}
	one[0] ^= 0xff
	measure(cl, "one-chunk notify update", len(one), 2, func() {
		if n, err := cl.Update("sum/one", one); err != nil || n != 2 {
			t.Fatalf("update touched %d copies, %v", n, err)
		}
	})
	if got := sumWriteStat(peers, func(s *Stats) uint64 { return s.WritesAtHolder.Load() }) - atHolder; got != 2 {
		t.Fatalf("%d of the two updates entered at a holder", got)
	}
	if res, err := cl.Get("sum/one"); err != nil || !bytes.Equal(res.Data, one) {
		t.Fatalf("one-chunk readback: %d bytes, %v", len(res.Data), err)
	}
}
