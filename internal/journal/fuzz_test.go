package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTornTailRepair models the crash window: a valid log prefix followed by
// arbitrary bytes a dying writer may have left behind. Whatever the tail
// looks like, reopening must never panic, and when the reopen succeeds the
// intact prefix must survive verbatim and new appends must land cleanly
// after it. (A reopen may refuse the file — a complete-but-corrupt interior
// line is real corruption, not a torn tail — and that refusal is correct;
// the property under fuzz is no panic, no silent loss of the prefix.)
func FuzzTornTailRepair(f *testing.F) {
	f.Add(2, []byte(`{"i":9`))
	f.Add(0, []byte("garbage with no newline"))
	f.Add(3, []byte{0xff, 0x00, 0x7b})
	f.Add(1, []byte("{\"i\":42}\npartial"))
	f.Add(4, []byte("\n"))

	type rec struct {
		I int `json:"i"`
	}
	f.Fuzz(func(t *testing.T, n int, tail []byte) {
		n &= 7 // bound the prefix size; negative inputs fold in too
		if n < 0 {
			n = -n
		}
		path := filepath.Join(t.TempDir(), "j.jsonl")
		lg, err := OpenLog(path, false)
		if err != nil {
			t.Fatalf("open fresh log: %v", err)
		}
		for i := 0; i < n; i++ {
			if err := appendJSON(lg, rec{I: i}); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Crash: raw bytes straight onto the file, no framing, no fsync.
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatalf("reopen raw: %v", err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatalf("write tail: %v", err)
		}
		fh.Close()

		lg, err = OpenLog(path, false)
		if err != nil {
			// Interior corruption detected and refused — acceptable, as long
			// as it is an error and not a panic.
			return
		}
		const sentinel = 1 << 20
		if err := appendJSON(lg, rec{I: sentinel}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := lg.Close(); err != nil {
			t.Fatalf("close after repair: %v", err)
		}

		var got []rec
		err = Scan(path, func(line []byte) error {
			var r rec
			if err := json.Unmarshal(line, &r); err != nil {
				// The torn tail may contain arbitrary valid-JSON lines that
				// are not rec-shaped; they count as records, not defects.
				got = append(got, rec{I: -1})
				return nil
			}
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("scan after repair: %v", err)
		}
		if len(got) < n+1 {
			t.Fatalf("scan returned %d records, want at least %d (prefix) + 1 (sentinel)", len(got), n+1)
		}
		for i := 0; i < n; i++ {
			if got[i].I != i {
				t.Fatalf("prefix record %d = %+v after repair, want {I:%d}", i, got[i], i)
			}
		}
		if got[len(got)-1].I != sentinel {
			t.Fatalf("last record = %+v, want the post-repair sentinel", got[len(got)-1])
		}
	})
}

// FuzzDecodeRecord holds the decoder's fast path to its reference: on every
// line it accepts, json.Unmarshal must succeed and give the same record, bit
// for bit. Seeds are real lines and the near misses around them.
func FuzzDecodeRecord(f *testing.F) {
	for _, line := range []string{
		`{"k":"intent","i":{"id":7,"alloc":"grid","off":132,"valbits":9221650857558867969}}`,
		`{"k":"intent","i":{"id":8,"alloc":"field","tenant":"t1","addr":139637976727552,"off":4,"valbits":4631107791820423168}}`,
		`{"k":"outcome","o":{"id":7,"ok":true,"detail":"method=Lorenzo 1-Layer stage=primary","valbits":4632233691727265792}}`,
		`{"k":"outcome","o":{"id":9,"ok":false,"detail":"core: checkpoint-restart required"}}`,
		`{"k":"outcome","o":{"id":9,"ok":true}}`,
		`{"k":"intent","i":{"id":1,"alloc":"g","off":0,"valbits":9221120237041090561}}`, // NaN payload
		`{"k":"intent","i":{"id":1,"alloc":"g","off":0}}`,                               // no valbits
		`{"k":"intent","i":{}}`,
		`{"k":"intent","i":{"id":1,"alloc":"a\"b","off":0,"valbits":0}}`, // escapes
		`{"k":"intent","i":{"id":1,"alloc":"\u003cx\u003e","off":0,"valbits":0}}`,
		`{"k":"intent","i":{"id":1,"alloc":"café","off":0,"valbits":0}}`, // UTF-8
		"{\"k\":\"intent\",\"i\":{\"id\":1,\"alloc\":\"a\xffb\"}}",       // invalid UTF-8
		`{"k":"intent","i":{"off":1,"id":2,"alloc":"g"}}`,                // reordered
		`{"k":"outcome","o":{"ok":true,"id":3}}`,
		`{"k":"intent","i":{"id":18446744073709551615,"alloc":"g","off":9223372036854775807,"valbits":18446744073709551615}}`,
		`{"k":"intent","i":{"id":18446744073709551616,"alloc":"g","off":0,"valbits":0}}`,
		`{"k":"intent","i":{"id":99999999999999999999,"alloc":"g","off":0,"valbits":0}}`,
		`{"k":"intent","i":{"id":1,"alloc":"g","off":9223372036854775808,"valbits":0}}`,
		`{"k":"intent","i":{"id":1,"alloc":"g","off":-9223372036854775808,"valbits":0}}`,
		`{"k":"intent","i":{"id":1,"alloc":"g","off":-9223372036854775809,"valbits":0}}`,
		`{"k":"intent","i":{"id":-1,"alloc":"g","off":-5,"valbits":0}}`,
		`{"k":"intent","i":{"id":01,"alloc":"g"}}`,
		`{"k":"intent","i":{"id":1,"alloc":"g","off":-0}}`,
		`{"k":"intent","i":{"id":1,"alloc":"g","valbits":1e3}}`,
		`{"k":"intent","i":{"id":1,"id":2,"alloc":"g"}}`,
		`{"k":"intent","i":{"ID":1,"Alloc":"g"}}`,
		`{"k":"intent","i":{"id":1,"alloc":null}}`,
		`{"k":"intent","i":{"id":1} }`,
		`{"k":"intent","i":{"id":1},"o":{"id":2}}`,
		`{"k":"outcome","o":{"id":1,"ok":true,"detail":"x","valbits":0}}x`,
		`{"k":"outcome","i":{"id":1}}`,
		`{"k":"bogus","o":{"id":1}}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d Decoder
		fast, ok := d.decodeFast(line)
		if !ok {
			return
		}
		ref, err := decodeJSON(line)
		if err != nil {
			t.Fatalf("fast path accepted %q, which json.Unmarshal refuses: %v", line, err)
		}
		if !sameRecord(fast, ref) {
			t.Fatalf("%q: fast path %+v, json.Unmarshal %+v", line, fast, ref)
		}
	})
}
