package stream

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// wireDoer puts every response of inner through the frame codec, as a
// socket would: a chunk over msg's large-frame threshold then arrives in a
// frame buffer the response owns, Release recycles it, and — under the
// race detector — poisons it, so a chunk used after its release fails the
// byte comparisons below.
type wireDoer struct{ inner pointerDoer }

func (w wireDoer) Do(addr string, req *msg.Request) (*msg.Response, error) {
	resp, err := w.inner.Do(addr, req)
	if err != nil {
		return nil, err
	}
	var wire bytes.Buffer
	if err := msg.WriteResponseID(&wire, resp, 1); err != nil {
		return nil, err
	}
	resp, _, err = msg.ReadResponseID(&wire)
	return resp, err
}

func (w wireDoer) Exchange(addr string, req msg.Request, _ time.Duration) (msg.Response, error) {
	return exchange(w, addr, req)
}

// TestFetchOwnershipOverWire: a multi-chunk transfer releases every chunk
// frame after copying it out and still reassembles byte-identical; a
// single-chunk transfer hands its frame's bytes to the caller, who keeps
// them intact while later transfers recycle buffers around it.
func TestFetchOwnershipOverWire(t *testing.T) {
	one := payload(200<<10, 21) // one chunk, over the large-frame threshold
	many := payload(2<<20+333, 22)
	oneNet, oneSrcs := replicaNet(one, 4, 1)
	manyNet, manySrcs := replicaNet(many, 9, 3)
	const chunk = 256 << 10

	kept, ver, err := New(wireDoer{oneNet}, Config{ChunkSize: chunk}).Fetch("one", 0, oneSrcs)
	if err != nil || ver != 4 || !bytes.Equal(kept, one) {
		t.Fatalf("single-chunk fetch: %d bytes v%d, %v", len(kept), ver, err)
	}
	f := New(wireDoer{manyNet}, Config{ChunkSize: chunk, Window: 4})
	for i := 0; i < 3; i++ {
		got, ver, err := f.Fetch("many", 0, manySrcs)
		if err != nil || ver != 9 || !bytes.Equal(got, many) {
			t.Fatalf("multi-chunk fetch %d: %d bytes v%d, %v", i, len(got), ver, err)
		}
	}
	if !bytes.Equal(kept, one) {
		t.Fatal("the single-chunk result changed under its owner: its frame buffer was released")
	}
}

// TestFetchSingleChunkFileCRCMismatch: a one-chunk transfer verifies the
// file CRC against the chunk CRC it already checked instead of hashing the
// same bytes again — and still refuses a head whose two checksums disagree.
func TestFetchSingleChunkFileCRCMismatch(t *testing.T) {
	net, srcs := replicaNet(payload(1000, 23), 1, 1)
	lying := doerFunc(func(addr string, req *msg.Request) (*msg.Response, error) {
		resp, err := net.Do(addr, req)
		if err != nil || !resp.OK {
			return resp, err
		}
		fr, err := msg.DecodeFetchResp(resp.Data)
		if err != nil {
			return nil, err
		}
		fr.FileCRC ^= 1
		resp.Data, err = msg.AppendFetchResp(nil, fr)
		return resp, err
	})
	if _, _, err := New(lying, Config{}).Fetch("x", 0, srcs); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// TestFailedTransferListsItsBuffer: a multi-chunk transfer whose pinned
// version vanishes after the head chunk fails, and gives its reassembly
// buffer back once its workers are done with it — so the next body of its
// size is assembled in it. That buffer still holds the head chunk, or is
// poison from end to end under the race detector.
func TestFailedTransferListsItsBuffer(t *testing.T) {
	const size, chunk = 1<<20 + 4321, 128 << 10
	data := payload(size, 24)
	net, srcs := replicaNet(data, 3, 1)
	h := net.holders[srcs[0].Addr]
	var calls atomic.Int32
	superseding := doerFunc(func(addr string, req *msg.Request) (*msg.Response, error) {
		resp, err := net.Do(addr, req)
		if calls.Add(1) == 1 { // an update lands right after the head chunk is served
			h.mu.Lock()
			h.version++
			h.mu.Unlock()
		}
		return resp, err
	})
	if _, err := New(superseding, Config{ChunkSize: chunk}).FetchBody("x", 0, srcs); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("err = %v, want ErrVersionGone", err)
	}
	buf, next := msg.NewBody(size)
	defer next.Release()
	if head := buf[:chunk]; !bytes.Equal(head, data[:chunk]) && !bytes.Equal(head, bytes.Repeat([]byte{0xDB}, chunk)) {
		t.Fatal("the next body's buffer is not the failed transfer's: its reassembly buffer was not listed")
	}
}
