package stream

// The write half of the chunked data plane: a staged upload streams one
// payload to a single entry peer as ranged KindPut frames under a bounded
// in-flight window, then closes with exactly one commit frame that routes
// the assembled bytes into the normal insert/update path at the peer.
// Unlike the read side there is no striping — the staging session lives
// at one peer — but the same windowing keeps a 64 MiB upload from
// pinning a pipeline worker per transfer, and the per-chunk CRC plus the
// commit's whole-file CRC give the peer the same never-splice guarantee
// the fetch path has. The payload is checksummed once, chunk by chunk; the
// whole-file CRC is the combination of those sums (docs/ROUTING.md
// "Checksums").

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/crc32c"
	"lesslog/internal/msg"
)

// UploadStats counts an uploader's traffic with atomic counters.
type UploadStats struct {
	// Uploads counts committed transfers; ChunksSent the staged data
	// frames acknowledged; BytesSent their payload bytes; Aborts transfers
	// abandoned after a mid-stream failure (best-effort PutAbort sent).
	Uploads    atomic.Uint64
	ChunksSent atomic.Uint64
	BytesSent  atomic.Uint64
	Aborts     atomic.Uint64
	// ChecksummedBytes counts payload bytes a CRC-32C pass ran over: one
	// per byte offered to Put.
	ChecksummedBytes atomic.Uint64
}

// Uploader runs staged chunked uploads over one transport. Safe for
// concurrent use.
type Uploader struct {
	tr    Doer
	cfg   Config
	stats UploadStats
}

// NewUploader returns an Uploader issuing requests through tr. The
// Config's ChunkSize and Window apply exactly as on the fetch side;
// chunks additionally cap at msg.MaxPutChunkBytes to leave room for the
// put framing.
func NewUploader(tr Doer, cfg Config) *Uploader {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.ChunkSize > msg.MaxPutChunkBytes {
		cfg.ChunkSize = msg.MaxPutChunkBytes
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	return &Uploader{tr: tr, cfg: cfg}
}

// Stats exposes the uploader's counters.
func (u *Uploader) Stats() *UploadStats { return &u.stats }

// putFrame sends one KindPut frame and classifies the answer. rpcTO > 0
// stretches the exchange deadline: data frames scale it with the chunk they
// carry, and the commit frame with the whole payload — its handler drives
// every subtree holder's pull of the assembled body before answering. Only
// the fixed put header is encoded here; the chunk rides as the request's
// Tail, so it goes from the caller's payload to the socket without a copy.
func (u *Uploader) putFrame(addr, name string, pr *msg.PutReq, rpcTO time.Duration) (*msg.Response, error) {
	hdr, err := msg.AppendPutReqHeader(nil, pr)
	if err != nil {
		return nil, err
	}
	resp, err := u.tr.Exchange(addr, msg.Request{Kind: msg.KindPut, Name: name, Data: hdr, Tail: pr.Chunk}, rpcTO)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New(resp.Err)
	}
	return &resp, nil
}

// Put streams data to addr as a staged upload and commits it with op
// (msg.PutInsert or msg.PutUpdate), returning the commit's response. Any
// mid-stream failure sends a best-effort PutAbort — nothing staged is ever
// visible — and returns the failing frame's error.
func (u *Uploader) Put(addr, name string, data []byte, op msg.PutOp) (*msg.Response, error) {
	if op != msg.PutInsert && op != msg.PutUpdate {
		return nil, fmt.Errorf("stream: put op %d is not a commit op", op)
	}
	total := uint64(len(data))
	chunk := uint64(u.cfg.ChunkSize)

	// One pass sums every chunk; the whole-file CRC every frame declares is
	// their combination, and each frame reuses its chunk's sum. The first
	// range — empty for an empty payload — is the opening frame.
	type rng struct {
		off, ln uint64
		sum     uint32
	}
	var (
		ranges  []rng
		fileCRC uint32
	)
	for off := uint64(0); off < total || len(ranges) == 0; off += chunk {
		ln := chunk
		if off+ln > total {
			ln = total - off
		}
		sum := crc32c.Sum(data[off : off+ln])
		ranges = append(ranges, rng{off, ln, sum})
		fileCRC = crc32c.Combine(fileCRC, sum, ln)
	}
	u.stats.ChecksummedBytes.Add(total)

	// Opening frame alone: it creates the session and returns the token
	// the rest of the transfer rides under.
	head := ranges[0]
	ranges = ranges[1:]
	resp, err := u.putFrame(addr, name, &msg.PutReq{
		Op: msg.PutData, TotalSize: total, FileCRC: fileCRC,
		ChunkCRC: head.sum, Chunk: data[:head.ln],
	}, PullDeadline(head.ln))
	if err != nil {
		return nil, err
	}
	token := resp.Version
	u.stats.ChunksSent.Add(1)
	u.stats.BytesSent.Add(head.ln)

	// Bounded in-flight window, mirroring Fetch: Window workers drain the
	// range list, each chunk an independent pipelined frame.
	workers := u.cfg.Window
	if len(ranges) < workers {
		workers = len(ranges)
	}
	var (
		wg      sync.WaitGroup
		cursor  atomic.Uint64
		failErr error
		failMu  sync.Mutex
		failed  atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(cursor.Add(1) - 1)
				if i >= len(ranges) {
					return
				}
				c := data[ranges[i].off : ranges[i].off+ranges[i].ln]
				_, err := u.putFrame(addr, name, &msg.PutReq{
					Op: msg.PutData, Token: token, Offset: ranges[i].off,
					TotalSize: total, FileCRC: fileCRC,
					ChunkCRC: ranges[i].sum, Chunk: c,
				}, PullDeadline(ranges[i].ln))
				if err != nil {
					failMu.Lock()
					if failErr == nil {
						failErr = err
					}
					failMu.Unlock()
					failed.Store(true)
					return
				}
				u.stats.ChunksSent.Add(1)
				u.stats.BytesSent.Add(ranges[i].ln)
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		u.stats.Aborts.Add(1)
		u.putFrame(addr, name, &msg.PutReq{Op: msg.PutAbort, Token: token}, 0)
		return nil, failErr
	}

	commit, err := u.putFrame(addr, name, &msg.PutReq{
		Op: op, Token: token, TotalSize: total, FileCRC: fileCRC,
	}, PullDeadline(total))
	if err != nil {
		return nil, err
	}
	u.stats.Uploads.Add(1)
	return commit, nil
}
