package msg

// The KindDigest payloads: the request's Data carries a bucket-hash
// digest of the sender's name set (a count-prefixed vector of uint64
// bucket folds), the response's Data the (name, version) entries the
// responder holds in buckets whose folds differ. Both directions follow
// the trace decoding discipline — every nested length is checked
// against its limit and against the bytes actually present, a lying
// prefix is ErrCorrupt, never an allocation.

import "encoding/binary"

// DigestEntry is one (name, version) record of a digest response: a copy
// the responder holds that the requester should also hold.
type DigestEntry struct {
	Name    string
	Version uint64
}

// AppendDigest encodes a bucket-hash vector as a KindDigest request
// payload onto b. The bucket count is part of the payload so both sides
// agree on the fold partition without negotiation.
func AppendDigest(b []byte, buckets []uint64) ([]byte, error) {
	if len(buckets) > MaxDigestBuckets {
		return nil, ErrFrameTooLarge
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(buckets)))
	for _, h := range buckets {
		b = binary.BigEndian.AppendUint64(b, h)
	}
	return b, nil
}

// DecodeDigest parses a KindDigest request payload into its bucket-hash
// vector.
func DecodeDigest(b []byte) ([]uint64, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, err
	}
	if n > MaxDigestBuckets || int(n)*8 > len(b) {
		return nil, ErrCorrupt
	}
	buckets := make([]uint64, n)
	for i := range buckets {
		buckets[i] = binary.BigEndian.Uint64(b)
		b = b[8:]
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return buckets, nil
}

// AppendDigestEntries encodes a digest response payload onto b: the
// (name, version) records falling into differing buckets, capped at
// MaxDigestEntries per frame (the caller truncates; a later round picks
// up the rest once the transferred names stop diverging).
func AppendDigestEntries(b []byte, entries []DigestEntry) ([]byte, error) {
	if len(entries) > MaxDigestEntries {
		return nil, ErrFrameTooLarge
	}
	start := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		if len(e.Name) > MaxName {
			return nil, ErrFrameTooLarge
		}
		b = appendString(b, e.Name)
		b = binary.BigEndian.AppendUint64(b, e.Version)
	}
	if len(b)-start > MaxData {
		return nil, ErrFrameTooLarge
	}
	return b, nil
}

// DecodeDigestEntries parses a digest response payload.
func DecodeDigestEntries(b []byte) ([]DigestEntry, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, err
	}
	if n > MaxDigestEntries {
		return nil, ErrCorrupt
	}
	entries := make([]DigestEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		var e DigestEntry
		if e.Name, b, err = takeString(b, MaxName); err != nil {
			return nil, err
		}
		if e.Version, b, err = takeUint64(b); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return entries, nil
}
