package msg

// The chunked write-plane payloads (docs/ROUTING.md "write plane"): a
// KindPut request's Data carries one staged chunk or a commit/abort
// control frame, a KindNotify request's Data the transfer facts of an
// update leg or a placement. Both follow the fetch/digest decoding
// discipline — every nested length checked against its limit and against
// the bytes actually present, a lying prefix is ErrCorrupt, never an
// allocation.

import "encoding/binary"

// PutOp selects what a KindPut frame does with the staging session.
type PutOp uint8

// Put operations. A transfer opens with the first PutData chunk (token 0,
// offset 0), streams the rest under the returned token, and ends with
// exactly one commit or abort.
const (
	// PutData stages one chunk at Offset. The opening chunk (token 0)
	// declares TotalSize and FileCRC and creates the session; every later
	// chunk must restate them unchanged.
	PutData PutOp = iota + 1
	// PutInsert commits the assembled payload as a client insert: version
	// stamping and per-subtree placement follow the normal insert path.
	PutInsert
	// PutUpdate commits the assembled payload as a client update: version
	// stamping and children-list broadcast follow the normal update path.
	PutUpdate
	// PutAbort discards the session; nothing becomes visible or durable.
	PutAbort
)

// putReqWire is the fixed part of an encoded PutReq: op u8, token u64,
// offset u64, total u64, file CRC u32, chunk CRC u32, chunk length prefix
// u32. A chunk plus this overhead must fit the MaxData bound of the
// Request.Data field carrying it.
const putReqWire = 1 + 8 + 8 + 8 + 4 + 4 + 4

// MaxPutChunkBytes is the largest chunk one KindPut request can carry:
// the request Data bound minus the fixed PutReq framing.
const MaxPutChunkBytes = MaxData - putReqWire

// PutReq is one frame of a staged chunked upload. Token identifies the
// staging session at the receiving peer (0 opens one); TotalSize and
// FileCRC pin the transfer shape on every frame so a mismatched retry can
// never splice two payloads into one commit.
type PutReq struct {
	Op        PutOp
	Token     uint64
	Offset    uint64
	TotalSize uint64
	FileCRC   uint32
	ChunkCRC  uint32
	Chunk     []byte
}

func putReqSane(r *PutReq) bool {
	if r.Op < PutData || r.Op > PutAbort {
		return false
	}
	if r.TotalSize > MaxFileSize || r.Offset > MaxFileSize || len(r.Chunk) > MaxPutChunkBytes {
		return false
	}
	switch r.Op {
	case PutData:
		// A data frame must carry bytes that land inside the declared size.
		return len(r.Chunk) != 0 && r.Offset+uint64(len(r.Chunk)) <= r.TotalSize
	default:
		// Control frames carry no chunk and address an open session.
		return len(r.Chunk) == 0 && r.Token != 0
	}
}

// AppendPutReqHeader encodes the fixed part of a KindPut request payload
// onto b — everything before the chunk's bytes, its length prefix included.
// A sender puts it in Request.Data and points Request.Tail at r.Chunk where
// the bytes already live (a range of the payload being uploaded), so the
// chunk reaches the socket without an intermediate copy.
func AppendPutReqHeader(b []byte, r *PutReq) ([]byte, error) {
	if !putReqSane(r) {
		return nil, ErrFrameTooLarge
	}
	b = append(b, byte(r.Op))
	b = binary.BigEndian.AppendUint64(b, r.Token)
	b = binary.BigEndian.AppendUint64(b, r.Offset)
	b = binary.BigEndian.AppendUint64(b, r.TotalSize)
	b = binary.BigEndian.AppendUint32(b, r.FileCRC)
	b = binary.BigEndian.AppendUint32(b, r.ChunkCRC)
	return binary.BigEndian.AppendUint32(b, uint32(len(r.Chunk))), nil
}

// AppendPutReq encodes a whole KindPut request payload onto b:
// AppendPutReqHeader, then the chunk.
func AppendPutReq(b []byte, r *PutReq) ([]byte, error) {
	b, err := AppendPutReqHeader(b, r)
	if err != nil {
		return nil, err
	}
	return append(b, r.Chunk...), nil
}

// DecodePutReq parses a KindPut request payload. Chunk points into b — the
// Request.Data it was decoded from — and lives exactly as long.
func DecodePutReq(b []byte) (*PutReq, error) {
	if len(b) < 1 {
		return nil, ErrCorrupt
	}
	r := &PutReq{Op: PutOp(b[0])}
	b = b[1:]
	var err error
	if r.Token, b, err = takeUint64(b); err != nil {
		return nil, err
	}
	if r.Offset, b, err = takeUint64(b); err != nil {
		return nil, err
	}
	if r.TotalSize, b, err = takeUint64(b); err != nil {
		return nil, err
	}
	if r.FileCRC, b, err = takeUint32(b); err != nil {
		return nil, err
	}
	if r.ChunkCRC, b, err = takeUint32(b); err != nil {
		return nil, err
	}
	if r.Chunk, b, err = aliasBytes(b, MaxPutChunkBytes); err != nil {
		return nil, err
	}
	if len(b) != 0 || !putReqSane(r) {
		return nil, ErrCorrupt
	}
	return r, nil
}

// NotifyReq is the body of a KindNotify: the transfer shape of the new
// version — whose stamped version number rides the request's Version
// field — and where the body comes from. An update leg lists the pull
// sources already holding it, origin first: each delivered holder pulls
// the body via KindFetch from a listed source, verifies FileCRC, and
// appends itself to Sources before fanning out. A placement lists the
// placing peer, or no source and the Body inline (NotifyInline).
type NotifyReq struct {
	TotalSize uint64
	FileCRC   uint32
	Sources   []Holder
	Body      []byte // inline, unsummed; senders point Request.Tail at it
}

// notifyReqSane bounds a notify's shape: an empty body (a valid update,
// applied without a pull) sums to 0, and without sources the body is inline.
func notifyReqSane(r *NotifyReq) bool {
	return r.TotalSize <= MaxFileSize && (r.TotalSize != 0 || r.FileCRC == 0) && len(r.Sources) <= MaxHolders &&
		((len(r.Sources) == 0 && uint64(len(r.Body)) == r.TotalSize) || (len(r.Sources) != 0 && r.Body == nil))
}

// NotifyInline reports whether a placement carries an n-byte body inline:
// facts without sources, then the body, fit one request's data field.
func NotifyInline(n int) bool { return n <= MaxData-notifySourcesAt-4 }

// AppendNotifyReq encodes a KindNotify request payload, Body aside, onto b.
func AppendNotifyReq(b []byte, r *NotifyReq) ([]byte, error) {
	if !notifyReqSane(r) {
		return nil, ErrFrameTooLarge
	}
	b = binary.BigEndian.AppendUint64(b, r.TotalSize)
	b = binary.BigEndian.AppendUint32(b, r.FileCRC)
	if len(r.Sources) == 0 {
		return binary.BigEndian.AppendUint32(b, 0), nil
	}
	return AppendHolders(b, r.Sources)
}

// DecodeNotifyReq parses a KindNotify request payload.
func DecodeNotifyReq(b []byte) (*NotifyReq, error) {
	r := &NotifyReq{}
	var err error
	if r.TotalSize, b, err = takeUint64(b); err != nil {
		return nil, err
	}
	if r.FileCRC, b, err = takeUint32(b); err != nil {
		return nil, err
	}
	if len(b) >= 4 && binary.BigEndian.Uint32(b) == 0 {
		r.Body = b[4:] // no sources: the body follows
	} else if r.Sources, err = DecodeHolders(b); err != nil {
		return nil, err
	}
	if !notifyReqSane(r) {
		return nil, ErrCorrupt
	}
	return r, nil
}

// notifySourcesAt is the offset of the source count in an encoded notify,
// after the total size and the whole-file CRC.
const notifySourcesAt = 8 + 4

// AppendNotifySource returns a copy of the encoded notify b with h listed
// after the sources already there: a holder that has just converged offers
// itself to the legs below it, in one allocation and without decoding the
// list. b must be an encoding DecodeNotifyReq accepts, with no inline body.
func AppendNotifySource(b []byte, h Holder) ([]byte, error) {
	if len(b) < notifySourcesAt+4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(b[notifySourcesAt:])
	if n >= MaxHolders || len(h.Addr) > MaxName {
		return nil, ErrFrameTooLarge
	}
	out := make([]byte, len(b), len(b)+16+len(h.Addr))
	copy(out, b)
	binary.BigEndian.PutUint32(out[notifySourcesAt:], n+1)
	out = binary.BigEndian.AppendUint32(out, h.PID)
	out = appendString(out, h.Addr)
	return binary.BigEndian.AppendUint64(out, h.Version), nil
}
