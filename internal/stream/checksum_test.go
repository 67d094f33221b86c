package stream

import (
	"bytes"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// TestFetchVerifiesWhereItLands: a replica that damages a body chunk in
// flight (chunk CRC left as the holder computed it) is dropped for the
// transfer and the range refetched elsewhere; the sum FetchBody answers is
// the payload's, and every byte was passed over once plus the one bad range.
func TestFetchVerifiesWhereItLands(t *testing.T) {
	data := payload(40_000, 31)
	net, srcs := replicaNet(data, 2, 2)
	var evicted []string
	damaging := doerFunc(func(addr string, req *msg.Request) (*msg.Response, error) {
		resp, err := net.Do(addr, req)
		if err != nil || !resp.OK || addr != "holder-1" {
			return resp, err
		}
		fr, derr := msg.DecodeFetchResp(resp.Data)
		if derr != nil {
			return resp, err
		}
		fr.Chunk = append([]byte(nil), fr.Chunk...)
		fr.Chunk[len(fr.Chunk)/2] ^= 1
		resp.Data, _ = msg.AppendFetchResp(nil, fr)
		return resp, err
	})
	f := New(damaging, Config{ChunkSize: 8192, Window: 1,
		Evict: func(name, addr string, hard bool) { evicted = append(evicted, addr) }})
	b, err := f.FetchBody("x", 0, srcs)
	got, ver, sum := b.Data, b.Version, b.Sum
	if err != nil || ver != 2 || !bytes.Equal(got, data) {
		t.Fatalf("fetch: %d bytes v%d, %v", len(got), ver, err)
	}
	if want := crc32.Checksum(data, castagnoli); sum != want {
		t.Fatalf("answered sum %08x, payload sums to %08x", sum, want)
	}
	if len(evicted) != 1 || evicted[0] != "holder-1" {
		t.Fatalf("evicted %v, want the damaging replica once", evicted)
	}
	if got, want := f.Stats().ChecksummedBytes.Load(), uint64(len(data)+8192); got != want {
		t.Fatalf("checksummed %d bytes, want the payload once and the bad range once (%d)", got, want)
	}
}

// stagingPeer accepts an upload the way a peer's staging table does, holding
// every frame's declared sums to hash/crc32.
type stagingPeer struct {
	t    *testing.T
	mu   sync.Mutex
	data []byte
	buf  []byte
}

func (p *stagingPeer) Do(addr string, req *msg.Request) (*msg.Response, error) {
	// The chunk rides as the request's Tail; join it the way the wire would.
	pr, err := msg.DecodePutReq(append(append([]byte(nil), req.Data...), req.Tail...))
	if err != nil {
		return &msg.Response{Err: err.Error()}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr.FileCRC != crc32.Checksum(p.data, castagnoli) || pr.TotalSize != uint64(len(p.data)) {
		p.t.Errorf("frame at %d declares %d bytes summing to %08x", pr.Offset, pr.TotalSize, pr.FileCRC)
	}
	if pr.Op == msg.PutData {
		if pr.ChunkCRC != crc32.Checksum(pr.Chunk, castagnoli) {
			p.t.Errorf("frame at %d: chunk CRC %08x does not match its bytes", pr.Offset, pr.ChunkCRC)
		}
		copy(p.buf[pr.Offset:], pr.Chunk)
	}
	return &msg.Response{OK: true, Version: 7}, nil
}

func (p *stagingPeer) Exchange(addr string, req msg.Request, _ time.Duration) (msg.Response, error) {
	return exchange(p, addr, req)
}

// TestPutChecksumsOnce: the frames of an upload carry the chunk sums of one
// pass and the whole-file sum combined from them, ragged tail included.
func TestPutChecksumsOnce(t *testing.T) {
	data := payload(3*4096+17, 32)
	peer := &stagingPeer{t: t, data: data, buf: make([]byte, len(data))}
	up := NewUploader(peer, Config{ChunkSize: 4096, Window: 2})
	if _, err := up.Put("peer", "x", data, msg.PutInsert); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(peer.buf, data) {
		t.Fatal("staged bytes differ from the payload")
	}
	if got := up.Stats().ChecksummedBytes.Load(); got != uint64(len(data)) {
		t.Fatalf("checksummed %d bytes of a %d-byte payload", got, len(data))
	}
	if got := up.Stats().ChunksSent.Load(); got != 4 {
		t.Fatalf("sent %d chunks, want 4", got)
	}
}
