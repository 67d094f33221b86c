package msg

// The KindBatch payload: a count-prefixed list of length-prefixed inner
// encodings, riding in Request.Data (sub-requests) and Response.Data
// (sub-responses, one per sub-request, in order). Every nested length is
// bounds-checked against both MaxBatch and the bytes actually present, the
// same discipline the trace tail follows — a lying inner prefix is
// ErrCorrupt, never an allocation. Batches do not nest: a KindBatch
// sub-request is rejected at decode time, so a malicious frame cannot
// recurse the peer-side dispatcher.

import (
	"encoding/binary"
	"fmt"
)

// AppendBatchRequests encodes reqs as a KindBatch payload onto b. Each
// sub-request obeys the ordinary request limits; KindBatch sub-requests
// are rejected (no nesting), as is a batch whose encoding would not fit a
// Data field.
func AppendBatchRequests(b []byte, reqs []*Request) ([]byte, error) {
	if len(reqs) > MaxBatch {
		return nil, ErrFrameTooLarge
	}
	start := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(len(reqs)))
	for _, r := range reqs {
		if r.Kind == KindBatch {
			return nil, ErrFrameTooLarge
		}
		inner, err := AppendRequest(nil, r)
		if err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(inner)))
		b = append(b, inner...)
	}
	if len(b)-start > MaxData {
		return nil, ErrFrameTooLarge
	}
	return b, nil
}

// DecodeBatchRequests parses a KindBatch payload into its sub-requests.
func DecodeBatchRequests(b []byte) ([]*Request, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, err
	}
	if n > MaxBatch {
		return nil, ErrCorrupt
	}
	reqs := make([]*Request, 0, n)
	for i := uint32(0); i < n; i++ {
		var ln uint32
		if ln, b, err = takeUint32(b); err != nil {
			return nil, err
		}
		if int(ln) > len(b) {
			return nil, ErrCorrupt
		}
		r, err := DecodeRequest(b[:ln])
		if err != nil {
			return nil, err
		}
		if r.Kind == KindBatch {
			return nil, ErrCorrupt
		}
		reqs = append(reqs, r)
		b = b[ln:]
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return reqs, nil
}

// ServeBatch answers a KindBatch request: every sub-request runs through
// handle and the sub-responses travel back in one frame, in order. The
// decoder rejects nested batches, so handle is never given one. A traced
// batch spreads its trace onto every sub-request — each sub walks its own
// route under the shared TraceID and path — and the answer's Path is the
// batch's own followed by what each sub-route added to it, capped at
// MaxHops (a truncated trace beats a failed response). Each sub-response is
// released once encoded, as the serve loop releases a written response
// (Response.Release). The error says which
// half failed ("batch decode: …", "batch encode: …"); the caller owns the
// answer's ServedBy.
func ServeBatch(req *Request, handle func(*Request) *Response) (*Response, error) {
	subs, err := DecodeBatchRequests(req.Data)
	if err != nil {
		return nil, fmt.Errorf("batch decode: %w", err)
	}
	traced := req.Flags&FlagTrace != 0
	resp := &Response{OK: true}
	if traced {
		resp.Path = append([]Hop(nil), req.Path...)
	}
	resps := make([]*Response, len(subs))
	for i, sub := range subs {
		if traced {
			sub.Flags |= FlagTrace
			sub.TraceID = req.TraceID
			sub.Path = req.Path
		}
		resps[i] = handle(sub)
		if sp := resps[i].Path; traced && len(sp) > len(req.Path) {
			resp.Path = append(resp.Path, sp[len(req.Path):]...)
		}
	}
	if len(resp.Path) > MaxHops {
		resp.Path = resp.Path[:MaxHops]
	}
	resp.Data, err = AppendBatchResponses(nil, resps)
	for _, r := range resps {
		r.Release() // encoded, or failed to be: a stored copy's reference ends here
	}
	if err != nil {
		return nil, fmt.Errorf("batch encode: %w", err)
	}
	return resp, nil
}

// AppendBatchResponses encodes the sub-responses of a served batch onto b.
func AppendBatchResponses(b []byte, resps []*Response) ([]byte, error) {
	if len(resps) > MaxBatch {
		return nil, ErrFrameTooLarge
	}
	start := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(len(resps)))
	for _, r := range resps {
		inner, err := AppendResponse(nil, r)
		if err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(inner)))
		b = append(b, inner...)
	}
	if len(b)-start > MaxData {
		return nil, ErrFrameTooLarge
	}
	return b, nil
}

// DecodeBatchResponses parses a served batch's sub-responses.
func DecodeBatchResponses(b []byte) ([]*Response, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, err
	}
	if n > MaxBatch {
		return nil, ErrCorrupt
	}
	resps := make([]*Response, 0, n)
	for i := uint32(0); i < n; i++ {
		var ln uint32
		if ln, b, err = takeUint32(b); err != nil {
			return nil, err
		}
		if int(ln) > len(b) {
			return nil, ErrCorrupt
		}
		r, err := DecodeResponse(b[:ln])
		if err != nil {
			return nil, err
		}
		resps = append(resps, r)
		b = b[ln:]
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return resps, nil
}
