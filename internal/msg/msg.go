// Package msg defines the wire protocol spoken by the networked LessLog
// nodes (internal/netnode): a compact length-prefixed binary framing built
// on encoding/binary, carrying the file operations of paper §2.2 plus the
// flags the §3/§4 routing needs to terminate (the FINDLIVENODE fallback
// and cross-subtree migration state travel with the request).
//
// A connection opens with a hello in each direction (AppendHello: a magic
// word, then Epoch), and then carries frames. Frame layout (big endian):
//
//	uint32  payload length, with the high bit (FrameIDBit) set
//	uint64  request ID, echoed by the response
//	payload (Request or Response encoding)
//
// Both payloads end with a trace section — a trace ID (requests only) and
// a list of Hop records (PID, parent PID, action, duration) — that carries
// the live route of a FlagTrace request across the wire. The parent field
// turns the hop list into a tree: linear lookups chain each hop to the one
// before it, while broadcast fan-outs attach every delivery to the stop
// that forwarded to it, so one trace can describe an entire update's
// fan-out shape. See docs/OBSERVABILITY.md for the exact byte layout.
//
// Sizes are bounded (MaxName, MaxData, MaxHops) so a malicious or corrupt
// peer cannot make a node allocate unboundedly.
package msg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Kind enumerates request types.
type Kind uint8

// Request kinds. KindGet and KindLocateSet are forwarded per the lookup
// tree; KindStat asks a node for its status snapshot.
const (
	KindInsert Kind = iota + 1
	KindGet
	KindUpdate
	_ // 4: retired whole-frame placement; never reuse
	KindStat
	// KindRegister announces a membership change (§5.1's register-live /
	// register-dead broadcast): Origin carries the PID, Data its address
	// for a live registration, FlagDead marks a departure.
	KindRegister
	// KindTable asks a peer for its PID→address table and the fabric's
	// shape: the networked status word a joining node bootstraps from and
	// a locate client places inserts with.
	KindTable
	// KindHas asks whether the peer holds a copy of Name — the probe the
	// distributed REPLICATEFILE uses to find "the first node in the
	// children list that does not have a replicated copy" (§2.2).
	KindHas
	// KindDelete erases a file everywhere via the same top-down
	// children-list broadcast updates use (FlagPropagate marks the
	// broadcast legs; an update's legs are KindNotify).
	KindDelete
	_ // 10: retired sub-request batch; never reuse
	_ // 11: retired single-holder locate; never reuse
	// KindDigest is the anti-entropy synchronization probe of the replica
	// repair subsystem (docs/REPAIR.md): Data carries a bounds-checked
	// bucket-hash digest of the sender's name set (AppendDigest), Origin the
	// sender's PID. The responder compares the digest against its own
	// holdings that belong on the sender and answers with the (name,
	// version) entries falling into differing buckets (AppendDigestEntries)
	// — so synchronization cost scales with divergence, not inventory.
	KindDigest
	// KindTraces asks a node for its sampled-trace ring (docs/
	// OBSERVABILITY.md): the response's Data carries the ring snapshot as
	// JSON — recent traces plus the retained slow/error tail.
	KindTraces
	// KindFetch is the ranged read of the chunked data plane
	// (docs/ROUTING.md): a direct request for Length bytes at Offset of Name
	// to a holder a KindLocateSet answer named — never forwarded,
	// serve-or-refuse (NotHolderError). The request's Data carries
	// the range (AppendFetchReq); its Version pins the copy's version (0
	// accepts any), so a transfer striped across replicas can never splice
	// bytes from two versions. The response's Data carries the chunk with
	// its CRC-32C plus the file's total size and whole-file CRC
	// (AppendFetchResp); the response Version reports the version actually
	// served.
	KindFetch
	// KindLocateSet is the locate, the control half of the locate-then-fetch
	// data plane: forwarded along the lookup tree exactly like KindGet (same
	// ancestor walk, FINDLIVENODE fallback and subtree migration), but the
	// first holder reached answers with the known replica set instead of the
	// payload — its own copy first (PID, address, real version), then the
	// other required primary holders of the name's subtree placements —
	// encoded as AppendHolders in Data, its PID in ServedBy and its copy's
	// version in Version. Clients stripe chunk fetches round-robin across
	// the set and cache it as a multi-holder route hint.
	KindLocateSet
	// KindPut is the ranged write of the chunked data plane — the upload
	// twin of KindFetch (docs/ROUTING.md "write plane"). A direct
	// client↔peer request whose Data carries one staged chunk or a commit/
	// abort control frame (AppendPutReq): the opening chunk declares the
	// transfer shape (total size, whole-file CRC-32C) and the response
	// returns a staging token; further chunks ride the token; an explicit
	// commit restates the shape and applies the assembled payload through
	// the normal write path (insert placement or update broadcast), so a
	// partial upload is never visible or durable. Never forwarded; bounds-
	// checked per chunk.
	KindPut
	// KindNotify with FlagPropagate is the leg of every update broadcast,
	// at any size: it carries only the transfer facts — total size,
	// whole-file CRC-32C, and the pull sources already holding the new
	// version (AppendNotifyReq) — with the stamped version in the request's
	// Version. It fans down the children-list broadcast tree like a
	// delete, and each holder pulls the body via KindFetch from a listed
	// source (an empty body needs no pull), so tree bytes stay O(legs),
	// never O(legs × size). Without FlagPropagate it places one copy: the
	// body rides inline after facts listing no source when both fit one
	// frame (NotifyInline), else the receiver pulls it from the one listed
	// source, the placing peer. The receiver stores and forwards nothing.
	KindNotify
)

// KindCount sizes per-kind metric arrays: valid kinds index 1..KindCount-1,
// slot 0 collects unknown kinds.
const KindCount = int(KindNotify) + 1

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindGet:
		return "get"
	case KindUpdate:
		return "update"
	case KindStat:
		return "stat"
	case KindRegister:
		return "register"
	case KindTable:
		return "table"
	case KindHas:
		return "has"
	case KindDelete:
		return "delete"
	case KindDigest:
		return "digest"
	case KindTraces:
		return "traces"
	case KindFetch:
		return "fetch"
	case KindLocateSet:
		return "locate-set"
	case KindPut:
		return "put"
	case KindNotify:
		return "notify"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// UnknownKindError renders the response error a dispatcher gives a kind
// it does not serve. It is input validation, not a protocol mode: there is
// one protocol version, so the caller sees an ordinary failed request.
func UnknownKindError(k Kind) string {
	return fmt.Sprintf("netnode: unknown kind %v", k)
}

// These response strings are de-facto protocol: data-plane clients match
// them verbatim to classify a refused direct fetch or whole-frame get.
// netnode re-exports them as ErrNotHolder / ErrWrongVersion / ErrOverFrame.
const (
	// NotHolderError answers a ranged fetch at a peer not holding the file
	// — the "your route hint is stale" signal.
	NotHolderError = "netnode: not holding requested file"
	// WrongVersionError answers a version-pinned fetch whose pin no longer
	// matches the held copy — the splice guard of chunked transfers.
	WrongVersionError = "netnode: version no longer held"
	// OverFrameError replaces an answer whose body is larger than one wire
	// frame (MaxData) — the serve loop writes it, so a whole-frame get of
	// such a body learns that the copy exists, but only ranged fetches can
	// carry it.
	OverFrameError = "netnode: body exceeds one frame; fetch it through the chunked plane"
)

// Limits protecting decoders.
const (
	MaxName  = 4 << 10  // 4 KiB file names
	MaxData  = 16 << 20 // 16 MiB file payloads
	MaxHops  = 512      // trace hop records per frame
	MaxFrame = MaxData + MaxName + 64 + MaxHops*hopWire

	// MaxDigestBuckets bounds the bucket-hash vector of a KindDigest
	// request (32 KiB of hashes at the cap); MaxDigestEntries bounds the
	// (name, version) list of its response — enough to warm a rejoined
	// peer in a handful of rounds without letting one frame carry an
	// unbounded inventory.
	MaxDigestBuckets = 4096
	MaxDigestEntries = 1024

	// MaxFileSize bounds the total size a chunked transfer (KindFetch or
	// KindPut) may declare: 64 MiB — four single-frame payloads — keeps
	// client reassembly and upload staging buffers bounded while raising
	// the effective file-size ceiling well past one frame. Both planes
	// share the ceiling: anything a chunked write can store, a chunked
	// read can serve back.
	MaxFileSize = 64 << 20
	// MaxHolders bounds the replica set a KindLocateSet answer may carry.
	MaxHolders = 64
)

// FitsFrame reports whether an n-byte body rides one frame's data field.
// A serve loop answers a body that does not with OverFrameError, so a
// handler counts such an answer as a refusal, not as a serve.
func FitsFrame(n int) bool { return n <= MaxData }

// Flag bits carried by requests.
const (
	// FlagFallback marks a get that already took the §3 second step; the
	// receiving primary answers instead of forwarding further.
	FlagFallback uint8 = 1 << iota
	// FlagReplica marks a placement carrying a replica rather than an
	// inserted copy, and a KindFetch a peer pulls a body with.
	FlagReplica
	// FlagPropagate marks a KindNotify or KindDelete that is a leg of a
	// top-down children-list broadcast rather than a client's request, or a
	// KindRegister relayed by the bootstrap peer (no further relaying).
	FlagPropagate
	// FlagDead marks a KindRegister announcing a departure or failure.
	FlagDead
	// FlagTrace asks every stop on the request's route to append a Hop
	// record; the serving node copies the accumulated path into the
	// response, so the client sees the actual wire-level route (the live
	// counterpart of internal/trace's predicted rendering).
	FlagTrace
	// FlagJSON asks KindStat for the structured JSON stats snapshot
	// instead of the legacy one-line text summary.
	FlagJSON
	// FlagLocalOnly is retired: it once marked a KindGet that a non-holder
	// refused instead of forwarding. Peers ignore it — a get is served if
	// held and forwarded if not — and the bit stays reserved so no new flag
	// reuses it.
	FlagLocalOnly
	// FlagInventory asks KindStat (with FlagJSON) to include the node's
	// full per-name inventory — name, version, kind, §6 serve count — in
	// the snapshot, so a fleet scraper can compute replica-count
	// distributions and exact top-K hot names. Off by default because the
	// inventory scales with the store while the rest of the snapshot is
	// O(1).
	FlagInventory
)

// HopAction classifies what one stop on a traced route did with the
// request — mirroring the routing steps of §2.2–§4.
type HopAction uint8

// Hop actions.
const (
	// HopForward: forwarded to the first live ancestor (§2.2/§3 walk).
	HopForward HopAction = iota + 1
	// HopFallback: forwarded via the FINDLIVENODE second step (§3).
	HopFallback
	// HopMigrate: forwarded into the next subtree (§4 migration).
	HopMigrate
	// HopServe: answered from the local store; always the final hop.
	HopServe
	// HopLocate: answered with the replica set instead of the data — the
	// final hop of a traced KindLocateSet walk.
	HopLocate
	// HopFault: the request died here — no copy and no next hop (or every
	// forward attempt failed). Always the final hop of a faulted route;
	// carrying it back makes dead routes debuggable with `-op get -trace`.
	HopFault
	// HopFanout: this stop initiated a top-down broadcast (update/delete):
	// the root of a fan-out trace tree. Its duration covers the whole
	// synchronous fan-out.
	HopFanout
	// HopDeliver: a broadcast delivery applied here — the copy was
	// rewritten (update) or tombstoned (delete) before fanning out to the
	// children list. Deliver hops parent onto the stop that forwarded to
	// them, so the trace reconstructs the fan-out tree.
	HopDeliver
	// HopRepair: the anti-entropy loop at this stop initiated a traced
	// exchange (a KindHas probe round, a placement, or a KindDigest
	// sync); the root of a repair trace.
	HopRepair
	// HopEdge: the gateway edge admitted the request and stamped the trace
	// — always the first hop of a gateway-originated trace, carried with
	// PID GatewayPID so fabric hops correlate back to the edge.
	HopEdge
)

// String names the action.
func (a HopAction) String() string {
	switch a {
	case HopForward:
		return "forward"
	case HopFallback:
		return "fallback"
	case HopMigrate:
		return "migrate"
	case HopServe:
		return "serve"
	case HopLocate:
		return "locate"
	case HopFault:
		return "fault"
	case HopFanout:
		return "fanout"
	case HopDeliver:
		return "deliver"
	case HopRepair:
		return "repair"
	case HopEdge:
		return "edge"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// NoParent is the Parent value of a root hop — the stop where a trace
// began. PID 0 is a valid node, so the sentinel lives at the top of the
// range, far above any real PID (identifier widths cap out at m=32).
const NoParent = ^uint32(0)

// GatewayPID is the PID a gateway stamps on its edge hop. Gateways sit
// outside the identifier space, so the sentinel cannot collide with a
// fabric node; one below NoParent keeps both distinguishable.
const GatewayPID = ^uint32(0) - 1

// Hop is one stop of a traced route: which node handled the request, which
// stop forwarded to it (NoParent at the root), what it did with it, and
// how long it held it (from handler entry to the forward, or to the
// response for a serve). Parent pointers are PIDs, not indices, so hops
// collected concurrently from a fan-out merge in any order.
type Hop struct {
	PID    uint32
	Parent uint32
	Action HopAction
	Dur    time.Duration
}

// hopWire is one encoded Hop: PID u32, parent u32, action u8, duration
// i64 (ns).
const hopWire = 4 + 4 + 1 + 8

func appendHops(b []byte, hops []Hop) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(hops)))
	for _, h := range hops {
		b = binary.BigEndian.AppendUint32(b, h.PID)
		b = binary.BigEndian.AppendUint32(b, h.Parent)
		b = append(b, byte(h.Action))
		b = binary.BigEndian.AppendUint64(b, uint64(h.Dur))
	}
	return b
}

func takeHops(b []byte) ([]Hop, []byte, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if n > MaxHops || int(n)*hopWire > len(b) {
		return nil, nil, ErrCorrupt
	}
	if n == 0 {
		return nil, b, nil
	}
	hops := make([]Hop, n)
	for i := range hops {
		hops[i].PID = binary.BigEndian.Uint32(b)
		hops[i].Parent = binary.BigEndian.Uint32(b[4:])
		hops[i].Action = HopAction(b[8])
		hops[i].Dur = time.Duration(binary.BigEndian.Uint64(b[9:]))
		b = b[hopWire:]
	}
	return hops, b, nil
}

// Request is one node-to-node or client-to-node message.
type Request struct {
	Kind    Kind
	Flags   uint8
	Origin  uint32 // PID of the node the client first contacted
	Hops    uint32 // forwarding hops so far
	Subtree uint32 // §4: subtrees already tried (migration counter)
	Version uint64 // update/store version
	Name    string
	Data    []byte
	// Tail, when set, is sent as the closing bytes of the data field without
	// being copied into it: the wire carries Data‖Tail under one length
	// prefix. Chunk senders put the fixed chunk header in Data and point
	// Tail at the bytes where they already live (AppendPutReqHeader).
	// Decoders never set it — a received message has everything in Data.
	Tail []byte
	// TraceID identifies a traced request (FlagTrace); hops propagate it so
	// multi-peer logs of one route can be correlated. 0 when untraced.
	TraceID uint64
	// Path accumulates one Hop per stop of a traced request: each peer
	// appends its own record before forwarding, so the request carries its
	// route history to the serving node.
	Path []Hop

	// ref is the request's reference to the read buffer Data aliases — set
	// only on requests read off a frame longer than readChunk (see Release).
	ref *Ref
	// lent marks Data as pointing into a pooled read buffer the serve loop
	// takes back once the response is written (see Frame.DecodeRequest, Keep).
	// It is part of the value, so a struct copy of a lent request is lent.
	lent bool
}

// Response answers a Request.
type Response struct {
	OK       bool
	ServedBy uint32
	Hops     uint32
	Version  uint64
	Err      string
	Data     []byte
	// Tail is the scatter-write twin of Request.Tail: the wire carries
	// Data‖Tail under one length prefix (AppendFetchRespHeader). Decoders
	// set it only on the answer to a KindFetch (Frame.DecodeResponse): Data
	// is then the fixed fetch header and Tail the chunk, each an allocation
	// of its own size — or, off a large frame, a view of its own — and
	// DecodeFetchAnswer reads that shape and the one-field shape alike.
	Tail []byte
	// Path is the completed route of a traced request: the request's
	// accumulated hops plus the serving node's own record. Intermediate
	// peers relay it back unchanged.
	Path []Hop

	// ref is the response's reference to the read buffer Data aliases — set
	// on responses read off a frame longer than readChunk, and on those a
	// handler attached a stored copy's reference to (see Release, Attach).
	ref *Ref
}

// Encoding errors.
var (
	ErrFrameTooLarge = errors.New("msg: frame exceeds limits")
	ErrCorrupt       = errors.New("msg: corrupt frame")
	// ErrNoFrameID refuses a frame whose length word lacks FrameIDBit.
	ErrNoFrameID = errors.New("msg: frame without request ID")
)

// appendUvarint-style fixed encodings keep the format trivially seekable.

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func takeUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrCorrupt
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

func takeUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrCorrupt
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

func takeString(b []byte, max int) (string, []byte, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return "", nil, err
	}
	if int(n) > max || int(n) > len(b) {
		return "", nil, ErrCorrupt
	}
	return string(b[:n]), b[n:], nil
}

func takeBytes(b []byte, max int) ([]byte, []byte, error) {
	field, b, err := aliasBytes(b, max)
	if err != nil {
		return nil, nil, err
	}
	out := make([]byte, len(field))
	copy(out, field)
	return out, b, nil
}

// aliasBytes is takeBytes without the copy: the returned field points into
// b (capacity clipped, so an append cannot scribble over what follows).
func aliasBytes(b []byte, max int) ([]byte, []byte, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if int(n) > max || int(n) > len(b) {
		return nil, nil, ErrCorrupt
	}
	return b[:n:n], b[n:], nil
}

// The encoders below are split where the data field's contents sit —
// check, appendHead (every byte before them, length prefix included) and
// appendTrailer (every byte after) — so the frame writer can send a large
// payload from where it lives instead of through an encode buffer.

func (r *Request) check() error {
	if len(r.Name) > MaxName || len(r.Data)+len(r.Tail) > MaxData || len(r.Path) > MaxHops {
		return ErrFrameTooLarge
	}
	return nil
}

func (r *Request) appendHead(b []byte) []byte {
	b = append(b, byte(r.Kind), r.Flags)
	b = binary.BigEndian.AppendUint32(b, r.Origin)
	b = binary.BigEndian.AppendUint32(b, r.Hops)
	b = binary.BigEndian.AppendUint32(b, r.Subtree)
	b = binary.BigEndian.AppendUint64(b, r.Version)
	b = appendString(b, r.Name)
	return binary.BigEndian.AppendUint32(b, uint32(len(r.Data)+len(r.Tail)))
}

func (r *Request) appendTrailer(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, r.TraceID)
	return appendHops(b, r.Path)
}

// AppendRequest encodes r onto b. The trace section (TraceID + Path)
// rides at the tail so the fixed 22-byte header layout predates it.
func AppendRequest(b []byte, r *Request) ([]byte, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	b = r.appendHead(b)
	b = append(b, r.Data...)
	b = append(b, r.Tail...)
	return r.appendTrailer(b), nil
}

// DecodeRequest parses a request payload. Every field is copied out of b.
func DecodeRequest(b []byte) (*Request, error) {
	r := new(Request)
	if err := decodeRequest(r, b, false); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeRequest parses a request payload into r, overwriting every field;
// with alias set, Data points into b instead of being copied out of it (the
// frame readers' path, where b is a buffer the message borrows or owns).
func decodeRequest(r *Request, b []byte, alias bool) error {
	if len(b) < 2 {
		return ErrCorrupt
	}
	*r = Request{Kind: Kind(b[0]), Flags: b[1]}
	b = b[2:]
	var err error
	if r.Origin, b, err = takeUint32(b); err != nil {
		return err
	}
	if r.Hops, b, err = takeUint32(b); err != nil {
		return err
	}
	if r.Subtree, b, err = takeUint32(b); err != nil {
		return err
	}
	if r.Version, b, err = takeUint64(b); err != nil {
		return err
	}
	if r.Name, b, err = takeString(b, MaxName); err != nil {
		return err
	}
	if r.Data, b, err = takeData(b, alias); err != nil {
		return err
	}
	if r.TraceID, b, err = takeUint64(b); err != nil {
		return err
	}
	if r.Path, b, err = takeHops(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return ErrCorrupt
	}
	return nil
}

// takeData takes a message's data field, aliased or copied.
func takeData(b []byte, alias bool) ([]byte, []byte, error) {
	if alias {
		return aliasBytes(b, MaxData)
	}
	return takeBytes(b, MaxData)
}

// splitFetch takes a KindFetch answer's data field as two: the fixed fetch
// header and, past it, the chunk — aliased or copied, each copy exactly its
// own size, so a 4 KiB chunk costs a 4 KiB object instead of sharing the
// next size class up with its header. A field no longer than the header
// (an empty chunk, an error answer) is taken whole, with no tail.
func splitFetch(b []byte, alias bool) (head, tail, rest []byte, err error) {
	field, rest, err := aliasBytes(b, MaxData)
	if err != nil {
		return nil, nil, nil, err
	}
	head = field
	if len(field) > fetchRespWire {
		head, tail = field[:fetchRespWire:fetchRespWire], field[fetchRespWire:]
	}
	if !alias {
		head, tail = bytes.Clone(head), bytes.Clone(tail)
	}
	return head, tail, rest, nil
}

func (resp *Response) check() error {
	if len(resp.Err) > MaxName || len(resp.Data)+len(resp.Tail) > MaxData || len(resp.Path) > MaxHops {
		return ErrFrameTooLarge
	}
	return nil
}

func (resp *Response) appendHead(b []byte) []byte {
	ok := byte(0)
	if resp.OK {
		ok = 1
	}
	b = append(b, ok)
	b = binary.BigEndian.AppendUint32(b, resp.ServedBy)
	b = binary.BigEndian.AppendUint32(b, resp.Hops)
	b = binary.BigEndian.AppendUint64(b, resp.Version)
	b = appendString(b, resp.Err)
	return binary.BigEndian.AppendUint32(b, uint32(len(resp.Data)+len(resp.Tail)))
}

func (resp *Response) appendTrailer(b []byte) []byte { return appendHops(b, resp.Path) }

// AppendResponse encodes resp onto b.
func AppendResponse(b []byte, resp *Response) ([]byte, error) {
	if err := resp.check(); err != nil {
		return nil, err
	}
	b = resp.appendHead(b)
	b = append(b, resp.Data...)
	b = append(b, resp.Tail...)
	return resp.appendTrailer(b), nil
}

// DecodeResponse parses a response payload. Every field is copied out of b.
func DecodeResponse(b []byte) (*Response, error) {
	resp := new(Response)
	if err := decodeResponse(resp, b, false, 0); err != nil {
		return nil, err
	}
	return resp, nil
}

// decodeResponse is decodeRequest's twin, for the answer to a request of
// kind to (0: unknown). A KindFetch answer's data field is split after the
// fixed fetch header (splitFetch).
func decodeResponse(resp *Response, b []byte, alias bool, to Kind) error {
	if len(b) < 1 {
		return ErrCorrupt
	}
	*resp = Response{OK: b[0] == 1}
	b = b[1:]
	var err error
	if resp.ServedBy, b, err = takeUint32(b); err != nil {
		return err
	}
	if resp.Hops, b, err = takeUint32(b); err != nil {
		return err
	}
	if resp.Version, b, err = takeUint64(b); err != nil {
		return err
	}
	if resp.Err, b, err = takeString(b, MaxName); err != nil {
		return err
	}
	if to != KindFetch {
		resp.Data, b, err = takeData(b, alias)
	} else {
		resp.Data, resp.Tail, b, err = splitFetch(b, alias)
	}
	if err != nil {
		return err
	}
	if resp.Path, b, err = takeHops(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return ErrCorrupt
	}
	return nil
}

// FrameIDBit is set in the length word of every frame: an 8-byte request
// ID follows the word and precedes the payload, and a response echoes its
// request's ID, so responses may come back in any order. MaxFrame is far
// below 2^31, so the bit never collides with a length. A frame without it
// — the one-at-a-time framing peers spoke before pipelining — is refused
// with ErrNoFrameID.
const FrameIDBit = 1 << 31

// frameHdrLen is the encoded frame header: the length word and the uint64
// request ID after it.
const frameHdrLen = 4 + 8

// readChunk splits the frame codec in two. A frame of at most readChunk
// bytes is read into a pooled buffer of that capacity with one
// io.ReadFull; a response has every field copied out and the buffer goes
// straight back to the pool, a served request borrows it until its response
// is written (Frame.DecodeRequest). Its payload, when small enough, is likewise
// copied into a pooled buffer to be written. A longer frame gets a buffer
// of its own that the decoded message keeps (readLargeFrame), and its
// payload is written from where it lives (writeFrame). The split is also
// what bounds a lying length prefix: a frame's declared length is
// attacker-controlled — a malicious or corrupt peer can claim MaxFrame
// (16 MiB) and send nothing — so nothing is ever allocated for bytes that
// have not arrived.
const readChunk = 64 << 10

// bufPool recycles the codec's small buffers across exchanges: encode
// buffers (a whole small frame, or the head and trailer around a large
// payload), read buffers of frames up to readChunk, and the staging pieces
// of readLargeFrame — none of which outgrows readChunk plus a frame's head
// and trailer, so the pool needs no size cap. Buffers are returned only by
// this package. The one decoded field that may point into one is the Data
// of a lent request, for as long as its Lease is open; a large frame's
// aliased Data lives in a buffer of its own.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, readChunk)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readFrameHeader parses the length word and the request ID off the
// stream. A buffered reader — what the serve loop and the mux hold — is
// peeked, so its header costs nothing; any other reader has the bytes read
// into an array that escapes through the interface call. The length word is
// judged before the ID is waited for: a frame without FrameIDBit, or one
// claiming more than MaxFrame, is refused on its first four bytes.
func readFrameHeader(r io.Reader) (n int, id uint64, err error) {
	br, buffered := r.(*bufio.Reader)
	var hdr []byte
	if buffered {
		hdr, err = peekFull(br, 4)
	} else {
		hdr = make([]byte, frameHdrLen)
		_, err = io.ReadFull(r, hdr[:4])
	}
	if err != nil {
		return 0, 0, err
	}
	word := binary.BigEndian.Uint32(hdr)
	if word&FrameIDBit == 0 {
		return 0, 0, ErrNoFrameID
	}
	n = int(word &^ FrameIDBit)
	if n > MaxFrame {
		return 0, 0, ErrFrameTooLarge
	}
	if buffered {
		hdr, err = peekFull(br, frameHdrLen)
	} else {
		_, err = io.ReadFull(r, hdr[4:])
	}
	if err != nil {
		return 0, 0, err
	}
	id = binary.BigEndian.Uint64(hdr[4:])
	if buffered {
		br.Discard(frameHdrLen) // cannot fail: the bytes were just peeked
	}
	return n, id, nil
}

// peekFull is br.Peek(n) with io.ReadFull's errors: io.EOF only when the
// stream ended before the first byte.
func peekFull(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// The frame writer encodes a frame into a pooled buffer — header space
// (frameStart), the message's head, its payload when that is small enough to
// copy (appendPayload), its trailer — and writeFrame stamps the header and
// sends it. A payload of at most readChunk bytes is copied in with the rest
// and the whole frame goes out in a single Write — one syscall, and no
// interleaving risk for concurrent writers that already serialize on a
// higher-level lock. A larger payload stays where it is: the frame goes out
// as head, Data, Tail and trailer segments — one writev when w is a socket
// (net.Buffers), consecutive Writes otherwise, which a bufio.Writer passes
// through without buffering the large ones. Same bytes either way. Only
// WriteRequestID and WriteResponseID see the message, and they pass on its
// fields, never the message: a request or response the caller built on its
// stack stays there.

// WriteRequestID frames and writes one request, carrying id for the
// response to echo.
func WriteRequestID(w io.Writer, r *Request, id uint64) error {
	if err := r.check(); err != nil {
		return err
	}
	bp := getBuf()
	defer putBuf(bp)
	head := appendPayload(r.appendHead(frameStart(bp)), r.Data, r.Tail)
	*bp = r.appendTrailer(head)
	return writeFrame(w, id, *bp, len(head), r.Data, r.Tail)
}

// WriteResponseID frames and writes one response, echoing the request's id.
func WriteResponseID(w io.Writer, resp *Response, id uint64) error {
	if err := resp.check(); err != nil {
		return err
	}
	bp := getBuf()
	defer putBuf(bp)
	head := appendPayload(resp.appendHead(frameStart(bp)), resp.Data, resp.Tail)
	*bp = resp.appendTrailer(head)
	return writeFrame(w, id, *bp, len(head), resp.Data, resp.Tail)
}

// frameStart empties a pooled buffer and reserves the frame header's bytes.
func frameStart(bp *[]byte) []byte { return append((*bp)[:0], make([]byte, frameHdrLen)...) }

// vectored reports whether a payload is written from where it lives
// instead of being copied into the frame buffer.
func vectored(data, tail []byte) bool { return len(data)+len(tail) > readChunk }

// appendPayload appends data‖tail to a frame's head unless it is vectored.
func appendPayload(head, data, tail []byte) []byte {
	if vectored(data, tail) {
		return head
	}
	return append(append(head, data...), tail...)
}

// writeFrame stamps the header of the frame encoded in buf — head (and a
// copied payload) up to split, trailer after it — and writes it, with a
// vectored payload between the two.
func writeFrame(w io.Writer, id uint64, buf []byte, split int, data, tail []byte) error {
	vec := vectored(data, tail)
	n := len(buf) - frameHdrLen
	if vec {
		n += len(data) + len(tail)
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n)|FrameIDBit)
	binary.BigEndian.PutUint64(buf[4:], id)
	if !vec {
		_, err := w.Write(buf)
		return err
	}
	segs := make(net.Buffers, 0, 4)
	for _, s := range [...][]byte{buf[:split], data, tail, buf[split:]} {
		if len(s) > 0 {
			segs = append(segs, s)
		}
	}
	_, err := segs.WriteTo(w)
	return err
}

// A Frame is one frame read off a stream and not yet decoded: the request
// ID its header carried and its payload — in a pooled read buffer when it
// is at most readChunk bytes, in a buffer of its own otherwise
// (readLargeFrame). Reading and decoding are split so the decode can go
// into storage the caller already has — a serve loop's recycled requests,
// a mux reader's response value. Exactly one DecodeRequest or
// DecodeResponse call consumes a Frame.
type Frame struct {
	ID    uint64
	small *[]byte // pooled read buffer of a frame of at most readChunk bytes
	large []byte  // buffer of a larger frame; the decoded message owns it
}

// ReadFrame reads one frame off r.
func ReadFrame(r io.Reader) (Frame, error) {
	n, id, err := readFrameHeader(r)
	if err != nil {
		return Frame{}, err
	}
	if n > readChunk {
		buf, err := readLargeFrame(r, n)
		if err != nil {
			return Frame{}, err
		}
		return Frame{ID: id, large: buf}, nil
	}
	bp := getBuf()
	*bp = (*bp)[:n]
	if _, err := io.ReadFull(r, *bp); err != nil {
		putBuf(bp)
		return Frame{}, err
	}
	return Frame{ID: id, small: bp}, nil
}

// DecodeRequest decodes f into req, overwriting every field, for a serve
// loop: req is on loan until the returned Lease ends, and so is its Data
// when f is a small frame — it points into f's pooled read buffer instead
// of being copied out of it. The loop ends the lease once req's response
// has been written (so a response may point into req.Data); whoever holds
// the bytes past that point calls Keep first, and nobody holds req itself
// (a struct copy is fine). A request with no payload borrows no buffer; one
// read off a large frame owns its buffer (see Release). A frame that does
// not decode has its buffer taken back.
func (f Frame) DecodeRequest(req *Request) (Lease, error) {
	bp, err := f.lend(req)
	if err != nil {
		return Lease{}, err
	}
	return Lease{bp: bp, req: req}, nil
}

// lend is DecodeRequest without the Lease: it returns the pooled buffer
// req.Data is lent from, nil when nothing is lent. ReadRequestID gives that
// buffer back and keeps its request, which ending a Lease would clear.
func (f Frame) lend(req *Request) (*[]byte, error) {
	if f.large != nil {
		if err := decodeRequest(req, f.large, true); err != nil {
			frames.put(f.large)
			return nil, err
		}
		req.ref = newRef(f.large)
		return nil, nil
	}
	if err := decodeRequest(req, *f.small, true); err != nil {
		putBuf(f.small)
		return nil, err
	}
	if len(req.Data) == 0 {
		putBuf(f.small)
		req.Data = nil
		return nil, nil
	}
	req.lent = true
	return f.small, nil
}

// DecodeResponse decodes f, the answer to a request of kind to (0 when the
// caller does not know it), into resp, overwriting every field. A small
// frame's fields are copied out and its buffer goes back to the pool; a
// large frame's Data aliases the frame's buffer, which resp then owns (see
// Release). A KindFetch answer comes back split: Data holds the fixed fetch
// header and Tail the chunk (Response.Tail, DecodeFetchAnswer).
func (f Frame) DecodeResponse(resp *Response, to Kind) error {
	if f.large != nil {
		if err := decodeResponse(resp, f.large, true, to); err != nil {
			frames.put(f.large)
			return err
		}
		resp.ref = newRef(f.large)
		return nil
	}
	defer putBuf(f.small)
	return decodeResponse(resp, *f.small, false, to)
}

// ReadRequestID reads and decodes one request and its request ID, for a
// caller that owns the request outright. The Data of a request read off a
// frame longer than readChunk aliases the frame's buffer (see Release); a
// smaller frame's Data is a private copy.
func ReadRequestID(r io.Reader) (*Request, uint64, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return nil, 0, err
	}
	req := new(Request)
	bp, err := f.lend(req)
	if err != nil {
		return nil, 0, err
	}
	if bp != nil {
		req.Keep() // the copy; a large frame's reference is the request's own
	}
	giveBack(bp)
	return req, f.ID, nil
}

// ReadResponseID reads and decodes one response and the request ID it
// echoes. The Data of a response read off a frame longer than readChunk
// aliases the frame's buffer; see Release.
func ReadResponseID(r io.Reader) (*Response, uint64, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return nil, 0, err
	}
	resp := new(Response)
	if err := f.DecodeResponse(resp, 0); err != nil {
		return nil, 0, err
	}
	return resp, f.ID, nil
}

// A Lease is a served request's loan (Frame.DecodeRequest): the request
// struct the serve loop decoded into and, for a request read off a small
// frame, the pooled read buffer its Data points into. The zero Lease holds
// nothing.
type Lease struct {
	bp  *[]byte
	req *Request
}

// endedRequest is what a served request reads as once its lease has ended
// under the race detector: every field garbage, none of the next request's.
var endedRequest = Request{
	Kind: 0xDB, Flags: 0xDB, Origin: 0xDBDBDBDB, Hops: 0xDBDBDBDB, Subtree: 0xDBDBDBDB,
	Version: 0xDBDBDBDBDBDBDBDB, Name: "\xdb(request read after its lease ended)", TraceID: 0xDBDBDBDBDBDBDBDB,
}

// End ends the loan, once the request's response has been written. The
// request is cleared — so it pins no name or path while it waits to be
// decoded into again — its reference to a large frame's buffer ends, and a
// small frame's buffer goes back to the pool: the request, and the Data of
// every struct copy of it that has not called Keep, is invalid from here
// on. Under the race detector the request reads as endedRequest and the
// buffer's bytes as 0xDB, like a released frame's, so a handler that held
// either past its response reads garbage instead of the next request.
func (l Lease) End() {
	if l.req != nil {
		l.req.ref.Release()
		if poisonReleased {
			*l.req = endedRequest
		} else {
			*l.req = Request{}
		}
	}
	giveBack(l.bp)
}

// giveBack returns a lent read buffer (nil: none) to the pool, poisoned
// first under the race detector.
func giveBack(bp *[]byte) {
	if bp == nil {
		return
	}
	if poisonReleased {
		for i := range *bp {
			(*bp)[i] = 0xDB
		}
	}
	putBuf(bp)
}

// Keep makes r.Data safe to hold past the request's response. The Data of
// a lent request (Frame.DecodeRequest) is replaced by a private copy of
// exactly its size, and Keep returns nil. Data read off a large frame stays
// where it is, and Keep returns a new reference to that frame's buffer: the
// holder ends it (Ref.Release) once it is done with Data — or never, which
// leaves the buffer to the collector. Anything else, a request built
// locally or one already copied, is left alone, so calling it at every
// point that stores Data costs nothing where nothing was lent. It writes to
// r: keep a struct copy when other goroutines are reading the request.
func (r *Request) Keep() *Ref {
	if r.lent {
		kept := make([]byte, len(r.Data))
		copy(kept, r.Data)
		r.Data, r.lent = kept, false
	}
	return r.ref.Retain()
}
