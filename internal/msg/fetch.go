package msg

// The chunked data plane payloads (docs/ROUTING.md): a KindFetch request's
// Data carries a byte range (offset + length), its response's Data one
// verified chunk plus the transfer-level facts every chunk restates; a
// KindLocateSet response's Data carries the replica set of a name as
// (PID, address, version) holder records. All three follow the
// digest decoding discipline — every nested length is checked
// against its limit and against the bytes actually present, a lying
// prefix is ErrCorrupt, never an allocation.

import (
	"encoding/binary"
	"slices"
)

// fetchRespWire is the fixed part of an encoded FetchResp: total size u64,
// file CRC u32, chunk CRC u32, chunk length prefix u32. A chunk plus this
// overhead must fit the MaxData bound of the Response.Data field carrying
// it, so MaxChunkBytes is the hard per-chunk ceiling.
const fetchRespWire = 8 + 4 + 4 + 4

// MaxChunkBytes is the largest chunk one KindFetch response can carry:
// the response Data bound minus the fixed FetchResp framing.
const MaxChunkBytes = MaxData - fetchRespWire

// FetchReq is the range of a KindFetch request: Length bytes starting at
// Offset. The holder truncates the final chunk at end-of-file, so a
// request may extend past the total size without being an error.
type FetchReq struct {
	Offset uint64
	Length uint32
}

func fetchReqSane(r FetchReq) bool {
	return r.Offset <= MaxFileSize && r.Length != 0 && int64(r.Length) <= MaxChunkBytes
}

// AppendFetchReq encodes a KindFetch range onto b.
func AppendFetchReq(b []byte, r FetchReq) ([]byte, error) {
	if !fetchReqSane(r) {
		return nil, ErrFrameTooLarge
	}
	b = binary.BigEndian.AppendUint64(b, r.Offset)
	b = binary.BigEndian.AppendUint32(b, r.Length)
	return b, nil
}

// DecodeFetchReq parses a KindFetch request payload.
func DecodeFetchReq(b []byte) (FetchReq, error) {
	var r FetchReq
	var err error
	if r.Offset, b, err = takeUint64(b); err != nil {
		return FetchReq{}, err
	}
	if r.Length, b, err = takeUint32(b); err != nil {
		return FetchReq{}, err
	}
	if len(b) != 0 || !fetchReqSane(r) {
		return FetchReq{}, ErrCorrupt
	}
	return r, nil
}

// FetchResp is one chunk of a KindFetch response: the bytes at the
// requested offset with their own CRC-32C, plus the transfer-level facts
// restated on every chunk — the file's total size and whole-file CRC-32C
// — so a client can pin the transfer shape off whichever chunk answers
// first and verify the reassembled file end to end.
type FetchResp struct {
	TotalSize uint64
	FileCRC   uint32
	ChunkCRC  uint32
	Chunk     []byte
}

// AppendFetchRespHeader encodes the fixed part of a KindFetch response
// payload onto b — everything before the chunk's bytes, its length prefix
// included. A sender puts it in Response.Data and points Response.Tail at
// r.Chunk where the bytes already live (a sub-slice of the stored body),
// so the chunk reaches the socket without an intermediate copy.
func AppendFetchRespHeader(b []byte, r *FetchResp) ([]byte, error) {
	if r.TotalSize > MaxFileSize || len(r.Chunk) > MaxChunkBytes {
		return nil, ErrFrameTooLarge
	}
	b = binary.BigEndian.AppendUint64(b, r.TotalSize)
	b = binary.BigEndian.AppendUint32(b, r.FileCRC)
	b = binary.BigEndian.AppendUint32(b, r.ChunkCRC)
	return binary.BigEndian.AppendUint32(b, uint32(len(r.Chunk))), nil
}

// AppendFetchResp encodes a whole KindFetch response payload onto b:
// AppendFetchRespHeader, then the chunk.
func AppendFetchResp(b []byte, r *FetchResp) ([]byte, error) {
	b, err := AppendFetchRespHeader(b, r)
	if err != nil {
		return nil, err
	}
	return append(b, r.Chunk...), nil
}

// DecodeFetchResp parses a KindFetch response payload. Chunk points into
// b — the Response.Data it was decoded from — and lives exactly as long.
func DecodeFetchResp(b []byte) (*FetchResp, error) {
	r, err := decodeFetchResp(b, nil)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeFetchAnswer parses the payload of a KindFetch answer in either shape
// it arrives in: whole in Data, or split by Frame.DecodeResponse — and built
// by a holder — as the fixed header in Data and the chunk in Tail. Chunk
// points into the response and lives exactly as long. The answer comes back
// by value, so a caller that reads it and moves on puts nothing on the heap.
func DecodeFetchAnswer(resp *Response) (FetchResp, error) {
	return decodeFetchResp(resp.Data, resp.Tail)
}

// decodeFetchResp parses a KindFetch payload b, or — with chunk non-empty —
// the header b of one whose chunk was split off into chunk: b must then end
// with the chunk's length prefix, and the prefix must say len(chunk).
func decodeFetchResp(b, chunk []byte) (FetchResp, error) {
	var r FetchResp
	var err error
	if r.TotalSize, b, err = takeUint64(b); err != nil {
		return FetchResp{}, err
	}
	if r.FileCRC, b, err = takeUint32(b); err != nil {
		return FetchResp{}, err
	}
	if r.ChunkCRC, b, err = takeUint32(b); err != nil {
		return FetchResp{}, err
	}
	if len(chunk) == 0 {
		r.Chunk, b, err = aliasBytes(b, MaxChunkBytes)
	} else {
		var n uint32
		if n, b, err = takeUint32(b); err == nil && (int(n) != len(chunk) || n > MaxChunkBytes) {
			err = ErrCorrupt
		}
		r.Chunk = chunk
	}
	if err != nil {
		return FetchResp{}, err
	}
	if len(b) != 0 || r.TotalSize > MaxFileSize || uint64(len(r.Chunk)) > r.TotalSize {
		return FetchResp{}, ErrCorrupt
	}
	return r, nil
}

// Holder is one replica-set member of a KindLocateSet answer: the PID and
// listen address of a peer expected to hold the name, and the version it
// is known to hold (0 for a required holder whose copy was not probed).
type Holder struct {
	PID     uint32
	Addr    string
	Version uint64
}

// AppendHolders encodes a KindLocateSet response payload onto b. The
// serving holder lists itself first; the set is never empty. b grows once,
// to the encoded size: a locate-set answer is built on every locate.
func AppendHolders(b []byte, hs []Holder) ([]byte, error) {
	if len(hs) == 0 || len(hs) > MaxHolders {
		return nil, ErrFrameTooLarge
	}
	n := 4
	for _, h := range hs {
		if len(h.Addr) > MaxName {
			return nil, ErrFrameTooLarge
		}
		n += 16 + len(h.Addr)
	}
	b = binary.BigEndian.AppendUint32(slices.Grow(b, n), uint32(len(hs)))
	for _, h := range hs {
		b = binary.BigEndian.AppendUint32(b, h.PID)
		b = appendString(b, h.Addr)
		b = binary.BigEndian.AppendUint64(b, h.Version)
	}
	return b, nil
}

// DecodeHolders parses a KindLocateSet response payload.
func DecodeHolders(b []byte) ([]Holder, error) {
	return DecodeHoldersFunc(b, func(pid uint32, addr []byte, version uint64) Holder {
		return Holder{PID: pid, Addr: string(addr), Version: version}
	})
}

// DecodeHoldersFunc parses a KindLocateSet response payload straight into
// the caller's own record type: mk builds one T per holder, in answer
// order, and the slice is allocated once, at the count the answer declares.
// addr is a view of b, valid only for the call — mk copies it, or finds an
// equal string it already holds. A payload that does not decode returns
// no slice.
func DecodeHoldersFunc[T any](b []byte, mk func(pid uint32, addr []byte, version uint64) T) ([]T, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > MaxHolders {
		return nil, ErrCorrupt
	}
	out := make([]T, 0, n)
	for i := uint32(0); i < n; i++ {
		var pid uint32
		var addr []byte
		var version uint64
		if pid, b, err = takeUint32(b); err != nil {
			return nil, err
		}
		if addr, b, err = aliasBytes(b, MaxName); err != nil {
			return nil, err
		}
		if version, b, err = takeUint64(b); err != nil {
			return nil, err
		}
		out = append(out, mk(pid, addr, version))
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return out, nil
}
