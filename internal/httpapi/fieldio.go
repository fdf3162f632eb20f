package httpapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"spatialdue/internal/core"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/ndarray/mmapstore"
)

// Field storage backings selectable via ServerConfig.FieldStore.
const (
	// FieldStoreHeap keeps each field as a Go slice (the default).
	FieldStoreHeap = "heap"
	// FieldStoreMmap backs each field with an mmap'd file under
	// DataDir/fields/<tenant>/<name>.field.
	FieldStoreMmap = "mmap"
)

// FieldPath returns the backing-file path for a tenant's field under
// dataDir. Tenant and name are validated by the handlers against
// [A-Za-z0-9._-] patterns; the lone residual traversal risk — a tenant
// literally named "." or ".." — is neutralized here.
func FieldPath(dataDir, tenant, name string) string {
	if tenant == "." || tenant == ".." {
		tenant = "_" + tenant
	}
	return filepath.Join(dataDir, "fields", tenant, name+".field")
}

// newFieldArray allocates the storage for a new registration according to
// the configured field store. For mmap, an existing backing file of the
// right size is remapped (remap-on-restart: journal replay then re-applies
// quarantine on top of the persisted contents); a size mismatch surfaces as
// mmapstore.ErrTorn and is never silently resized. created reports whether
// the call materialized a new backing file (false for heap and for a remap):
// a registration that fails after this point must delete a file it created —
// leaving a zero-filled orphan behind would make every future registration
// of the same tenant/name with a different shape fail as torn.
func (s *Server) newFieldArray(tenant, name string, dims []int, els int) (arr *ndarray.Array, created bool, err error) {
	if s.cfg.FieldStore != FieldStoreMmap {
		arr, err = ndarray.TryNew(dims...)
		return arr, false, err
	}
	path := FieldPath(s.cfg.DataDir, tenant, name)
	_, statErr := os.Stat(path)
	created = errors.Is(statErr, os.ErrNotExist)
	st, err := mmapstore.OpenOrCreate(path, els)
	if err != nil {
		return nil, false, err
	}
	arr, err = ndarray.NewWithBacking(st, dims...)
	if err != nil {
		if created {
			_ = st.Remove()
		} else {
			_ = st.Close()
		}
		return nil, false, err
	}
	return arr, created, nil
}

// uploadLock returns the allocation's upload mutex (created on first use).
// Uploads commit stripe by stripe, so two concurrent PUTs to one field would
// otherwise interleave and commit an arbitrary stripe-wise mix of both
// payloads; serializing per allocation keeps every upload atomic with
// respect to other uploads. Allocation IDs are never reused, so the entry
// dropped at unregister can't collide with a later registration.
func (s *Server) uploadLock(id int) *sync.Mutex {
	mu, _ := s.uploads.LoadOrStore(id, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// elementCount validates dims (non-empty, positive, no overflow) and returns
// their product. Mirrors ndarray's shape check so the registration handler
// can enforce the size cap BEFORE any storage — heap or file — is allocated.
func elementCount(dims []int) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("dims required")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("invalid dimension %d", d)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("field size overflows")
		}
		n *= d
	}
	return n, nil
}

// The field wire format is the array's elements in offset order, 8 bytes
// each, little-endian float64 bits: the body of an upload and a download,
// and the payload of a replication field frame. ReadField and WriteField
// are its one codec. Each moves a field one stripe at a time through a
// scratch buffer, holding only that stripe's lock (which owns the stripe's
// elements — see core.WithStripeLock) and no lock while the bytes cross
// the reader or writer, so a slow peer never stalls recoveries and the
// extra memory is one stripe, not one field.

// ReadField reads exactly Len*8 bytes from r into a, committing each stripe
// under its lock once its bytes have all arrived. committed lists the
// stripes overwritten, in order; a short or failing r returns an error
// after committing exactly the stripes it delivered in full. A caller
// whose list is non-empty must treat the field as changed, whether or not
// err is nil: pass the list to core.FieldUpdatedStripes, and re-replicate.
func ReadField(eng *core.Engine, a *ndarray.Array, r io.Reader) (committed []int, err error) {
	var scratch []byte
	for st, n := 0, eng.NumStripes(a); st < n; st++ {
		lo, hi := eng.StripeSpan(a, st)
		buf := stripeBuf(&scratch, lo, hi)
		if _, err := io.ReadFull(r, buf); err != nil {
			return committed, fmt.Errorf("read body at element %d: %w", lo, err)
		}
		eng.WithStripeLock(a, st, func() { copyStripe(a, lo, hi, buf, true) })
		committed = append(committed, st)
	}
	return committed, nil
}

// WriteField writes a's Len*8 wire bytes to w. Each stripe is an atomic
// snapshot, but stripes are captured at slightly different instants; with
// no recoveries in flight (the quiesced case every verification run uses)
// the result is a bit-exact point-in-time image.
func WriteField(eng *core.Engine, a *ndarray.Array, w io.Writer) error {
	var scratch []byte
	for st, n := 0, eng.NumStripes(a); st < n; st++ {
		lo, hi := eng.StripeSpan(a, st)
		buf := stripeBuf(&scratch, lo, hi)
		eng.WithStripeLock(a, st, func() { copyStripe(a, lo, hi, buf, false) })
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// stripeBuf returns *scratch sized to the wire bytes of elements [lo, hi),
// growing it when it is too small.
func stripeBuf(scratch *[]byte, lo, hi int) []byte {
	need := (hi - lo) * 8
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	return (*scratch)[:need]
}

// copyStripe moves elements [lo, hi) of a between the array and buf, their
// wire bytes: into the array when load, out of it otherwise. On a
// little-endian host the array's memory already is the wire format and the
// move is one copy; elsewhere each element is converted. The caller holds
// the stripe's lock.
func copyStripe(a *ndarray.Array, lo, hi int, buf []byte, load bool) {
	if view, ok := ndarray.ByteView(a); ok {
		if load {
			copy(view[lo*8:hi*8], buf)
		} else {
			copy(buf, view[lo*8:hi*8])
		}
		return
	}
	data := a.Data()[lo:hi]
	for i := range data {
		if load {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		} else {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(data[i]))
		}
	}
}

// isBodyTooLarge reports whether err is http.MaxBytesReader tripping.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}
