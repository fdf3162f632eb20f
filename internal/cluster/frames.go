package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
const (
	frameHello   = "hello"   // owner → partner: From, Seq (owner journal length)
	frameWelcome = "welcome" // partner → owner: Resume (replica record count)
	frameAlloc   = "alloc"   // register an allocation (Tenant, Alloc, Dims, DType, Policy)
	frameField   = "field"   // field contents (payload: little-endian float64s)
	frameUnreg   = "unreg"   // allocation teardown (Tenant, Alloc)
	frameJrec    = "jrec"    // one journal record (Seq; payload: raw JSON line)
	frameAck     = "ack"     // partner → owner: Seq durably in the replica file
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

// writeFrame emits one frame as a single Write call, so a crash or
// connection loss mid-frame can only truncate the stream, never interleave
// frames.
func writeFrame(w io.Writer, h frameHeader, payload []byte) error {
	hdr, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("cluster: marshal frame header: %w", err)
	}
	buf := make([]byte, 8+len(hdr)+len(payload))
	binary.BigEndian.PutUint32(buf[0:], uint32(len(hdr)))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(payload)))
	copy(buf[8:], hdr)
	copy(buf[8+len(hdr):], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("cluster: write %s frame: %w", h.Type, err)
	}
	return nil
}

// float64sToBytes encodes a field as little-endian float64 bits — the same
// layout the HTTP upload path uses, so replicated fields are bit-exact.
func float64sToBytes(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// bytesToFloat64s decodes a field payload; errors on ragged lengths.
func bytesToFloat64s(buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("cluster: field payload length %d not a multiple of 8", len(buf))
	}
	vals := make([]float64, len(buf)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return vals, nil
}

// readFrame reads one frame. Size caps reject garbage prefixes before any
// allocation happens; io.EOF surfaces unwrapped so callers can tell a clean
// close from a torn frame (io.ErrUnexpectedEOF).
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	return readFrameCapped(r, maxFrameHeader, maxFramePayload)
}

// readControlFrame reads a frame that carries no payload (hello, welcome,
// ack). Its tight caps matter most for hello, which arrives before the
// dialer is known to be the partner: a stranger's prefix announcing a big
// payload is refused without allocating it.
func readControlFrame(r io.Reader) (frameHeader, error) {
	h, _, err := readFrameCapped(r, maxControlHeader, 0)
	return h, err
}

func readFrameCapped(r io.Reader, maxHeader, maxPayload uint32) (frameHeader, []byte, error) {
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
	buf := make([]byte, int(hl)+int(pl))
	if _, err := io.ReadFull(r, buf); err != nil {
		return frameHeader{}, nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	var h frameHeader
	if err := json.Unmarshal(buf[:hl], &h); err != nil {
		return frameHeader{}, nil, fmt.Errorf("cluster: decode frame header: %w", err)
	}
	payload := buf[hl:]
	if pl == 0 {
		payload = nil
	}
	return h, payload, nil
}
