package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"spatialdue/internal/jsonwire"
)

// The replication stream is a plain TCP connection carrying length-prefixed
// frames, owner → partner, with small acks flowing back:
//
//	u32 headerLen | u32 payloadLen | header JSON | payload bytes
//
// The owner opens the stream with hello (its name and current journal
// length); the partner answers welcome carrying the resume cursor — the
// count of intact records in its replica file, which a torn tail never
// inflates (the tail is truncated on open, so the owner re-sends the torn
// record; see journal.CountRecords). Control state — allocations and field
// contents — carries no sequence numbers: the owner re-sends it all as an
// idempotent snapshot after every (re)connect, so only journal records need
// exactly-once framing and resume logic.
//
// Framing says nothing about writes: the sender packs consecutive frames
// into one write of up to batchBytes, and the partner acks cumulatively —
// one ack of its highest durable seq whenever its read buffer drains or
// batchBytes of records have arrived since the last one.
const (
	frameHello   = "hello"   // owner → partner: From, Seq (owner journal length)
	frameWelcome = "welcome" // partner → owner: Resume (replica record count)
	frameAlloc   = "alloc"   // register an allocation (Tenant, Alloc, Dims, DType, Policy)
	frameField   = "field"   // field contents (payload: little-endian float64s)
	frameUnreg   = "unreg"   // allocation teardown (Tenant, Alloc)
	frameJrec    = "jrec"    // one journal record (Seq; payload: raw JSON line)
	frameAck     = "ack"     // partner → owner: every record up to Seq is durably in the replica file
)

// policyWire is the wire form of a registry.Policy.
type policyWire struct {
	Any    bool     `json:"any,omitempty"`
	Method string   `json:"method,omitempty"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
}

// frameHeader is the JSON header of one frame. Fields are per-type; unused
// ones stay empty on the wire.
type frameHeader struct {
	Type   string      `json:"t"`
	From   string      `json:"from,omitempty"`
	Seq    uint64      `json:"seq,omitempty"`
	Resume uint64      `json:"resume,omitempty"`
	Tenant string      `json:"tenant,omitempty"`
	Alloc  string      `json:"alloc,omitempty"`
	Dims   []int       `json:"dims,omitempty"`
	DType  string      `json:"dtype,omitempty"`
	Policy *policyWire `json:"policy,omitempty"`
}

const (
	// maxFrameHeader bounds header JSON (names and dims only).
	maxFrameHeader = 64 << 10
	// maxFramePayload bounds payloads; field snapshots dominate, and the
	// HTTP layer caps uploads at 256 MiB, so mirror that.
	maxFramePayload = 256 << 20
	// maxControlHeader bounds the header of a frame that carries no
	// payload (hello, welcome, ack): a node name and two counters.
	maxControlHeader = 4 << 10
)

// batchBytes sizes the sender's write batch, the partner's read buffer and
// the partner's ack interval. A frame whose payload is larger (a field
// snapshot) is written on its own and read into a buffer of its own.
const batchBytes = 64 << 10

// appendFrame appends one frame — prefix, header, payload — to dst.
func appendFrame(dst []byte, h frameHeader, payload []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst, err := appendHeader(dst, h)
	if err != nil {
		return dst[:start], err
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-8))
	binary.BigEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	return append(dst, payload...), nil
}

// appendHeader appends h's header JSON exactly as json.Marshal writes it.
// The per-record headers (jrec and ack: a type and a seq) are written by
// hand; every other header goes through encoding/json.
func appendHeader(dst []byte, h frameHeader) ([]byte, error) {
	if seqOnly(h) {
		dst = append(dst, `{"t":"`...)
		dst = append(dst, h.Type...)
		if h.Seq == 0 {
			return append(dst, `"}`...), nil
		}
		dst = append(dst, `","seq":`...)
		return append(strconv.AppendUint(dst, h.Seq, 10), '}'), nil
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return dst, fmt.Errorf("cluster: marshal frame header: %w", err)
	}
	return append(dst, hdr...), nil
}

// seqOnly reports whether h is a jrec or ack header, which carry nothing
// but their seq.
func seqOnly(h frameHeader) bool {
	return (h.Type == frameJrec || h.Type == frameAck) && h.From == "" && h.Resume == 0 &&
		h.Tenant == "" && h.Alloc == "" && h.Dims == nil && h.DType == "" && h.Policy == nil
}

// decodeHeader decodes a frame header. The shape appendHeader writes for a
// jrec or ack, {"t":"jrec","seq":N}, is parsed by hand; anything else goes
// through encoding/json.
func decodeHeader(b []byte) (frameHeader, error) {
	if h, ok := decodeSeqHeader(b); ok {
		return h, nil
	}
	var h frameHeader
	if err := json.Unmarshal(b, &h); err != nil {
		return frameHeader{}, fmt.Errorf("cluster: decode frame header: %w", err)
	}
	return h, nil
}

// decodeSeqHeader parses exactly {"t":"jrec","seq":N} or
// {"t":"ack","seq":N}, N a canonical decimal that fits a uint64.
func decodeSeqHeader(b []byte) (frameHeader, bool) {
	var typ string
	switch {
	case jsonwire.HasPrefix(b, `{"t":"jrec","seq":`):
		typ, b = frameJrec, b[len(`{"t":"jrec","seq":`):]
	case jsonwire.HasPrefix(b, `{"t":"ack","seq":`):
		typ, b = frameAck, b[len(`{"t":"ack","seq":`):]
	default:
		return frameHeader{}, false
	}
	seq, rest, ok := jsonwire.Uint(b)
	if !ok || string(rest) != "}" {
		return frameHeader{}, false
	}
	return frameHeader{Type: typ, Seq: seq}, true
}

// writeFrame emits one frame as a single Write call, so a crash or
// connection loss mid-frame can only truncate the stream, never interleave
// frames.
func writeFrame(w io.Writer, h frameHeader, payload []byte) error {
	buf, err := appendFrame(make([]byte, 0, 8+64+len(payload)), h, payload)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("cluster: write %s frame: %w", h.Type, err)
	}
	return nil
}

// readControlFrame reads a frame that carries no payload (hello, welcome,
// ack). Its tight caps matter most for hello, which arrives before the
// dialer is known to be the partner: a stranger's prefix announcing a big
// payload is refused without allocating it.
func readControlFrame(r io.Reader) (frameHeader, error) {
	h, _, err := readFrameCapped(r, nil, maxControlHeader, 0)
	return h, err
}

// frameReader reads a stream of frames through one batchBytes read buffer
// into one reused frame buffer. A frame larger than batchBytes is read
// into a buffer of its own, which is not kept.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, batchBytes)}
}

// next reads one frame. Its payload is valid until the next call.
func (fr *frameReader) next() (frameHeader, []byte, error) {
	return readFrameCapped(fr.r, &fr.buf, maxFrameHeader, maxFramePayload)
}

// drained reports whether every byte received so far has been read.
func (fr *frameReader) drained() bool { return fr.r.Buffered() == 0 }

// readFrameCapped reads one frame within the caps. Size caps reject garbage
// prefixes before any allocation happens; io.EOF surfaces unwrapped so
// callers can tell a clean close from a torn frame (io.ErrUnexpectedEOF).
// With reuse non-nil a frame of up to batchBytes is read into *reuse
// (allocated once, at batchBytes), and the payload aliases it.
func readFrameCapped(r io.Reader, reuse *[]byte, maxHeader, maxPayload uint32) (frameHeader, []byte, error) {
	var lens [8]byte
	if _, err := io.ReadFull(r, lens[:]); err != nil {
		if err == io.EOF {
			return frameHeader{}, nil, io.EOF
		}
		return frameHeader{}, nil, fmt.Errorf("cluster: read frame prefix: %w", err)
	}
	hl := binary.BigEndian.Uint32(lens[0:])
	pl := binary.BigEndian.Uint32(lens[4:])
	if hl == 0 || hl > maxHeader {
		return frameHeader{}, nil, fmt.Errorf("cluster: frame header length %d out of range", hl)
	}
	if pl > maxPayload {
		return frameHeader{}, nil, fmt.Errorf("cluster: frame payload length %d exceeds cap", pl)
	}
	size := int(hl) + int(pl)
	var buf []byte
	switch {
	case reuse == nil || size > batchBytes:
		buf = make([]byte, size)
	default:
		if *reuse == nil {
			*reuse = make([]byte, batchBytes)
		}
		buf = (*reuse)[:size]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return frameHeader{}, nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	h, err := decodeHeader(buf[:hl])
	if err != nil {
		return frameHeader{}, nil, err
	}
	payload := buf[hl:]
	if pl == 0 {
		payload = nil
	}
	return h, payload, nil
}
