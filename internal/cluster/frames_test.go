package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// fuzzPayloadCap stands in for maxFramePayload while fuzzing: the caps are
// parameters of one code path, and the real one would let every lying
// prefix allocate 256 MiB.
const fuzzPayloadCap = 1 << 20

// readFrame reads one frame into a buffer of its own.
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	return readFrameCapped(r, nil, maxFrameHeader, maxFramePayload)
}

func TestSeqHeaderMatchesJSON(t *testing.T) {
	for _, h := range []frameHeader{
		{Type: frameJrec, Seq: 1}, {Type: frameAck, Seq: 42}, {Type: frameJrec},
		{Type: frameAck, Seq: math.MaxUint64},
	} {
		got, err := appendHeader(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(h)
		if !bytes.Equal(got, want) {
			t.Errorf("appendHeader(%+v) = %s, json.Marshal = %s", h, got, want)
		}
		if back, err := decodeHeader(got); err != nil || !reflect.DeepEqual(back, h) {
			t.Errorf("decodeHeader(%s) = %+v, %v", got, back, err)
		}
	}
	for _, in := range []string{
		`{"t":"jrec","seq":01}`, `{"t":"jrec","seq":18446744073709551616}`, `{"t":"jrec","seq":-1}`,
		`{"t":"jrec","seq":1} `, `{"t":"jrec","seq":}`, `{"t":"jrec","seq":1,"from":"x"}`,
	} {
		if h, ok := decodeSeqHeader([]byte(in)); ok {
			t.Errorf("fast path accepted %s as %+v", in, h)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader. Every read ends
// in a frame within the caps or an error, never a panic; a prefix that
// announces more than the caps is refused before its body is allocated.
// The hand-written jrec/ack header codec must agree with encoding/json:
// whatever the fast decoder accepts decodes as json.Unmarshal decodes it,
// and a header built from the fuzzed seq round-trips.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	for _, fr := range []struct {
		h       frameHeader
		payload []byte
	}{
		{frameHeader{Type: frameHello, From: "a", Seq: 9}, nil},
		{frameHeader{Type: frameAlloc, Tenant: "t", Alloc: "grid", Dims: []int{4, 4}, DType: "float64",
			Policy: &policyWire{Method: "Lorenzo 1-Layer"}}, nil},
		{frameHeader{Type: frameField, Tenant: "t", Alloc: "grid"}, make([]byte, 128)},
		{frameHeader{Type: frameJrec, Seq: 1}, []byte(`{"k":"intent","i":{"id":1,"alloc":"grid","off":3,"valbits":0}}`)},
		{frameHeader{Type: frameAck, Seq: 1}, nil},
	} {
		stream, _ = appendFrame(stream, fr.h, fr.payload)
	}
	f.Add(stream, uint64(7), false)
	f.Add([]byte(`{"t":"jrec","seq":12}`), uint64(0), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint64(math.MaxUint64), false)
	f.Add([]byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, '{'}, uint64(1), true)
	f.Fuzz(func(t *testing.T, data []byte, seq uint64, ack bool) {
		var reuse []byte
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			_, payload, err := readFrameCapped(r, &reuse, maxFrameHeader, fuzzPayloadCap)
			if err != nil {
				break
			}
			if len(payload) > fuzzPayloadCap {
				t.Fatalf("payload of %d bytes past the cap", len(payload))
			}
		}
		if _, err := readControlFrame(bytes.NewReader(data)); err == nil && len(data) >= 8 &&
			binary.BigEndian.Uint32(data[4:]) != 0 {
			t.Fatal("a control frame with a payload was accepted")
		}
		if len(data) >= 8 {
			hl, pl := binary.BigEndian.Uint32(data), binary.BigEndian.Uint32(data[4:])
			if hl > maxFrameHeader || pl > fuzzPayloadCap {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, _, err := readFrameCapped(bytes.NewReader(data), nil, maxFrameHeader, fuzzPayloadCap)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatal("a frame past the caps was accepted")
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 { // less than any body past the caps
					t.Fatalf("refusing a frame past the caps allocated %d bytes", grew)
				}
			}
		}

		if h, ok := decodeSeqHeader(data); ok {
			var want frameHeader
			if err := json.Unmarshal(data, &want); err != nil || !reflect.DeepEqual(h, want) {
				t.Fatalf("fast path decoded %q as %+v; json.Unmarshal: %+v, %v", data, h, want, err)
			}
		}
		h := frameHeader{Type: frameJrec, Seq: seq}
		if ack {
			h.Type = frameAck
		}
		got, err := appendHeader(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(h)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendHeader(%+v) = %s, json.Marshal = %s", h, got, want)
		}
		var ref frameHeader
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		back, err := decodeHeader(got)
		if err != nil || !reflect.DeepEqual(back, ref) {
			t.Fatalf("decodeHeader(%s) = %+v, %v; json.Unmarshal gives %+v", got, back, err, ref)
		}
	})
}
