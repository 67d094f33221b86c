package msg

import (
	"bufio"
	"encoding/binary"
)

// Epoch is the wire protocol's epoch: every connection opens with a hello
// announcing it (AppendHello), and two sides of different epochs exchange
// no frame. A change to any encoding in this package moves it
// (testdata/wire.golden records the epoch its bytes were made at). Builds
// from before the hello count as epoch 0.
const Epoch = 1

// HelloLen is the encoded hello: helloMagic, then the epoch, both uint32.
const HelloLen = 4 + 4

// helloMagic opens a hello. Its top bit is clear, so a reader from before
// the hello takes it for a length word without FrameIDBit and refuses the
// connection at once (ErrNoFrameID) instead of waiting for a frame. "LLep".
const helloMagic = 0x4c4c6570

// AppendHello encodes the hello announcing epoch onto b.
func AppendHello(b []byte, epoch uint32) []byte {
	b = binary.BigEndian.AppendUint32(b, helloMagic)
	return binary.BigEndian.AppendUint32(b, epoch)
}

// ReadHello reads the hello that opens a stream and returns the epoch it
// announces. A stream that opens with a frame instead — a build from before
// the hello — announces epoch 0, and the frame is left unread. A first word
// that is neither is ErrNoFrameID, as it is to ReadFrame, and like there it
// is judged before another byte is waited for.
func ReadHello(br *bufio.Reader) (uint32, error) {
	b, err := peekFull(br, 4)
	if err != nil {
		return 0, err
	}
	switch word := binary.BigEndian.Uint32(b); {
	case word&FrameIDBit != 0:
		return 0, nil
	case word != helloMagic:
		return 0, ErrNoFrameID
	}
	if b, err = peekFull(br, HelloLen); err != nil {
		return 0, err
	}
	epoch := binary.BigEndian.Uint32(b[4:])
	br.Discard(HelloLen) // cannot fail: the bytes were just peeked
	return epoch, nil
}
