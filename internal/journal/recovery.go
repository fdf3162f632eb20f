package journal

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"

	"spatialdue/internal/faultinject"
	"spatialdue/internal/jsonwire"
)

// Intent is one journaled recovery intent: everything a restarted service
// needs to re-quarantine and replay the recovery of a corrupt element.
type Intent struct {
	// ID is the journal-assigned sequence number, unique within the file.
	ID uint64
	// Alloc is the allocation name (replay resolves it by name, since
	// simulated base addresses are reassigned on restart).
	Alloc string
	// Tenant is the registry namespace the allocation lives in (empty for
	// direct library use; pre-tenancy journals decode to empty, which
	// matches allocations registered without a tenant).
	Tenant string
	// Addr is the faulting physical address as originally reported.
	Addr uint64
	// Offset is the linear element offset under recovery.
	Offset int
	// Detected is the corrupt value observed at intake (forensics only).
	Detected float64
}

// intentWire is the on-disk shape of an Intent. The detected value is the
// raw IEEE-754 bit pattern, not a JSON number: a DUE's payload is arbitrary
// garbage bits, frequently NaN or Inf, which encoding/json refuses to emit
// as a number — and the forensic record must be bit-exact anyway.
type intentWire struct {
	ID           uint64 `json:"id"`
	Alloc        string `json:"alloc"`
	Tenant       string `json:"tenant,omitempty"`
	Addr         uint64 `json:"addr,omitempty"`
	Offset       int    `json:"off"`
	DetectedBits uint64 `json:"valbits"`
}

// MarshalJSON implements json.Marshaler.
func (in Intent) MarshalJSON() ([]byte, error) {
	return json.Marshal(intentWire{
		ID: in.ID, Alloc: in.Alloc, Tenant: in.Tenant, Addr: in.Addr, Offset: in.Offset,
		DetectedBits: math.Float64bits(in.Detected),
	})
}

// appendJSON appends in as json.Marshal writes it.
func (in *Intent) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, in.ID, 10)
	dst = append(dst, `,"alloc":`...)
	dst = jsonwire.AppendString(dst, in.Alloc, true)
	if in.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = jsonwire.AppendString(dst, in.Tenant, true)
	}
	if in.Addr != 0 {
		dst = append(dst, `,"addr":`...)
		dst = strconv.AppendUint(dst, in.Addr, 10)
	}
	dst = append(dst, `,"off":`...)
	dst = strconv.AppendInt(dst, int64(in.Offset), 10)
	dst = append(dst, `,"valbits":`...)
	dst = strconv.AppendUint(dst, math.Float64bits(in.Detected), 10)
	return append(dst, '}')
}

// UnmarshalJSON implements json.Unmarshaler.
func (in *Intent) UnmarshalJSON(b []byte) error {
	var w intentWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*in = Intent{ID: w.ID, Alloc: w.Alloc, Tenant: w.Tenant, Addr: w.Addr, Offset: w.Offset,
		Detected: math.Float64frombits(w.DetectedBits)}
	return nil
}

// Outcome is the terminal record of a journaled recovery.
type Outcome struct {
	// ID references the intent.
	ID uint64 `json:"id"`
	// OK marks a verified in-place recovery.
	OK bool `json:"ok"`
	// Detail carries the failure cause, or the method/stage on success.
	Detail string `json:"detail,omitempty"`
	// NewBits is the IEEE-754 bit pattern of the recovered value on a
	// successful recovery (zero otherwise). A replication partner applies
	// these bits to its replica field so that, after a promotion, the
	// shard's data is bit-identical to what the dead owner had recovered —
	// a JSON float round-trip could not promise that for NaN payloads.
	NewBits uint64 `json:"valbits,omitempty"`
}

// appendJSON appends o as json.Marshal writes it.
func (o *Outcome) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, o.ID, 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendBool(dst, o.OK)
	if o.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = jsonwire.AppendString(dst, o.Detail, true)
	}
	if o.NewBits != 0 {
		dst = append(dst, `,"valbits":`...)
		dst = strconv.AppendUint(dst, o.NewBits, 10)
	}
	return append(dst, '}')
}

// envelope is the on-disk record: exactly one of Intent/Outcome is set.
type envelope struct {
	Kind    string   `json:"k"` // "intent" | "outcome"
	Intent  *Intent  `json:"i,omitempty"`
	Outcome *Outcome `json:"o,omitempty"`
}

// appendJSON appends e as json.Marshal writes it: the journal's line
// format, which decodeFast reads back.
func (e *envelope) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"k":`...)
	dst = jsonwire.AppendString(dst, e.Kind, true)
	if e.Intent != nil {
		dst = e.Intent.appendJSON(append(dst, `,"i":`...))
	}
	if e.Outcome != nil {
		dst = e.Outcome.appendJSON(append(dst, `,"o":`...))
	}
	return append(dst, '}')
}

// Sink observes every record appended to a Recovery journal, with its
// 1-based sequence number (index in the file) and raw JSON line. The
// replication sender uses it to tail the journal live. It is called after
// the record is durably in the local file, while an internal lock is held —
// implementations must not block (hand off to a channel and return). line
// is the journal's reused buffer: it is valid only until the sink returns,
// so a sink copies what it keeps.
type Sink func(seq uint64, line []byte)

// Recovery is the service's write-ahead recovery journal.
type Recovery struct {
	mu     sync.Mutex
	log    *Log
	nextID uint64
	seq    uint64 // records in the file: the replication cursor
	sink   Sink
	line   []byte // the record being appended, reused under mu
}

// OpenRecovery opens (creating if needed) the recovery journal at path and
// replays its records: every intent without a matching outcome — a recovery
// the previous process started but never finished — is returned in ID order
// so the caller can re-quarantine and resubmit it. New records append after
// the old ones; IDs continue from the highest seen. The file is read once:
// the replay's scan also finds the torn tail the log truncates.
func OpenRecovery(path string, sync bool) (*Recovery, []Intent, error) {
	var dangling OpenIntents
	var maxID, seq uint64
	var dec Decoder
	intact, err := scanFile(path, func(line []byte) error {
		seq++
		rec, err := dec.Decode(line)
		if err != nil {
			return err
		}
		dangling.Apply(rec)
		id := rec.Intent.ID
		if rec.Kind == KindOutcome {
			id = rec.Outcome.ID
		}
		maxID = max(maxID, id)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	log, err := openLog(path, sync, intact)
	if err != nil {
		return nil, nil, err
	}
	return &Recovery{log: log, nextID: maxID + 1, seq: seq}, dangling.List(), nil
}

// OpenIntents is the set of journaled intents still waiting for their
// outcome, folded record by record: an intent opens, its outcome closes it.
// It is what a restarted service replays and a promoted partner re-runs.
// The zero value is an empty set; it is not safe for concurrent use.
type OpenIntents struct {
	open map[uint64]Intent
}

// Apply folds one record into the set. An outcome closes its intent and
// returns it; ok is false for an intent, and for an outcome whose intent
// the set does not hold.
func (s *OpenIntents) Apply(rec Record) (closed Intent, ok bool) {
	if rec.Kind == KindIntent {
		if s.open == nil {
			s.open = make(map[uint64]Intent)
		}
		s.open[rec.Intent.ID] = rec.Intent
		return Intent{}, false
	}
	closed, ok = s.open[rec.Outcome.ID]
	delete(s.open, rec.Outcome.ID)
	return closed, ok
}

// List returns the open intents in ID order.
func (s *OpenIntents) List() []Intent {
	out := make([]Intent, 0, len(s.open))
	for _, in := range s.open {
		out = append(out, in)
	}
	slices.SortFunc(out, func(a, b Intent) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// SetSink installs (or clears, with nil) the replication sink. Records
// already in the file are not re-delivered — the sender catches up from the
// file via Records and uses the sink only for the live tail.
func (r *Recovery) SetSink(s Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Seq returns the sequence number of the last record appended (the count of
// records in the file).
func (r *Recovery) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// append encodes rec into the reused line buffer, appends it under the
// sequence lock (so sequence numbers assigned here always match line order
// in the file), and feeds the sink. The log's own mutex already serializes
// writers; taking r.mu around the write adds no extra contention beyond
// what the file imposes.
func (r *Recovery) append(rec envelope) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.line = append(rec.appendJSON(r.line[:0]), '\n')
	if err := r.log.write(r.line); err != nil {
		return err
	}
	r.seq++
	if r.sink != nil {
		r.sink(r.seq, r.line[:len(r.line)-1])
	}
	return nil
}

// Begin journals a recovery intent (durably, when the journal is synced)
// and returns its ID. This must complete before any recovery work starts:
// it is the write-ahead in write-ahead journal. tenant is the registry
// namespace of the allocation (empty outside the networked front end).
func (r *Recovery) Begin(tenant, alloc string, addr uint64, off int, detected float64) (uint64, error) {
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.mu.Unlock()
	in := Intent{ID: id, Alloc: alloc, Tenant: tenant, Addr: addr, Offset: off, Detected: detected}
	if err := r.append(envelope{Kind: "intent", Intent: &in}); err != nil {
		return 0, err
	}
	faultinject.CrashPoint("journal/intent-written")
	return id, nil
}

// Finish journals the outcome of intent id. Until this returns, the intent
// counts as unfinished and a restart will replay it.
func (r *Recovery) Finish(id uint64, ok bool, detail string) error {
	return r.FinishValue(id, ok, detail, 0)
}

// FinishValue is Finish carrying the recovered value's IEEE-754 bit pattern
// (meaningful only when ok; pass 0 otherwise). The replication partner
// applies newBits to its replica field, keeping promoted shards bit-exact.
func (r *Recovery) FinishValue(id uint64, ok bool, detail string, newBits uint64) error {
	faultinject.CrashPoint("journal/outcome-unwritten")
	out := Outcome{ID: id, OK: ok, Detail: detail, NewBits: newBits}
	if err := r.append(envelope{Kind: "outcome", Outcome: &out}); err != nil {
		return err
	}
	faultinject.CrashPoint("journal/outcome-written")
	return nil
}

// Close closes the underlying log.
func (r *Recovery) Close() error { return r.log.Close() }
