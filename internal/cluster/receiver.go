package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/journal"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// replicaState is everything this node holds on behalf of one owner: a
// byte-identical replica of the owner's journal file plus the live intent
// set and quarantine/field state mirrored into the local engine. On
// promotion the intent set IS the replay work-list — no re-scan needed.
type replicaState struct {
	owner string
	path  string

	mu      sync.Mutex
	log     *journal.Log
	count   uint64 // intact records durably in the replica file
	intents journal.OpenIntents
	dec     journal.Decoder // decodes both the file at open and the live stream
	conn    net.Conn        // active replication conn from the owner, if any
}

// replicaFor returns (opening or creating) the replica state for an owner.
// The replica journal lives at DataDir/replica-<owner>.jsonl; opening
// repairs a torn tail exactly like the primary journal does, and the intact
// count after repair is the resume cursor handed back in welcome — the torn
// record is re-requested, never trusted.
func (n *Node) replicaFor(owner string) (*replicaState, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.replicas[owner]; ok {
		return st, nil
	}
	st := &replicaState{
		owner: owner,
		path:  filepath.Join(n.cfg.DataDir, "replica-"+owner+".jsonl"),
	}
	if err := st.open(); err != nil {
		return nil, err
	}
	n.replicas[owner] = st
	return st, nil
}

// open (re)opens the replica journal: repair the tail, then seed count and
// the live intent set from the intact records.
func (st *replicaState) open() error {
	lg, err := journal.OpenLog(st.path, false)
	if err != nil {
		return fmt.Errorf("cluster: open replica %s: %w", st.path, err)
	}
	st.log = lg
	st.count = 0
	st.intents = journal.OpenIntents{}
	return journal.Records(st.path, func(seq uint64, line []byte) error {
		st.count = seq
		if rec, err := st.dec.Decode(line); err == nil {
			st.intents.Apply(rec)
		} // foreign record kinds replicate fine; they just don't replay
		return nil
	})
}

// rotate shelves a diverged replica (the owner's journal is shorter than
// what we hold — it restarted with a fresh file) and starts a new one.
func (st *replicaState) rotate() error {
	if st.log != nil {
		_ = st.log.Close()
		st.log = nil
	}
	if err := os.Rename(st.path, st.path+".old"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("cluster: rotate diverged replica: %w", err)
	}
	return st.open()
}

// acceptLoop serves the replication listener until it closes.
func (n *Node) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go n.handleRepl(conn)
	}
}

// handleRepl drives one inbound replication session from an owner.
func (n *Node) handleRepl(conn net.Conn) {
	defer conn.Close()
	h, err := readControlFrame(conn)
	if err != nil || h.Type != frameHello || h.From == "" {
		return
	}
	// Only accept streams from nodes whose designated partner is this node:
	// the map is the authority, not the dialer.
	if p, ok := n.cfg.Map.PartnerOf(h.From); !ok || p.Name != n.cfg.Self {
		log.Printf("cluster[%s]: rejecting replication stream from %q (not partnered here)", n.cfg.Self, h.From)
		return
	}
	st, err := n.replicaFor(h.From)
	if err != nil {
		log.Printf("cluster[%s]: replica state for %q: %v", n.cfg.Self, h.From, err)
		return
	}

	st.mu.Lock()
	if st.conn != nil {
		_ = st.conn.Close() // a redial supersedes the stale session
	}
	st.conn = conn
	if h.Seq < st.count {
		// Owner journal regressed (fresh file after reset/restart): our
		// replica is from a dead history. Shelve it and resync from zero.
		if err := st.rotate(); err != nil {
			st.mu.Unlock()
			log.Printf("cluster[%s]: %v", n.cfg.Self, err)
			return
		}
	}
	resume := st.count
	st.mu.Unlock()

	if err := writeFrame(conn, frameHeader{Type: frameWelcome, Resume: resume}, nil); err != nil {
		return
	}

	// Acks are cumulative: one ack of the highest durable seq once the read
	// buffer is drained (the owner has nothing more in flight) or batchBytes
	// of records have arrived since the last ack, whichever comes first.
	// Each is written from this goroutine after the append it covers.
	fr := newFrameReader(conn)
	var ack []byte
	unacked, owed := 0, false
	for {
		h, payload, err := fr.next()
		if err != nil {
			return
		}
		if err := n.applyFrame(st, h, payload); err != nil {
			log.Printf("cluster[%s]: replication from %q: %v", n.cfg.Self, st.owner, err)
			return
		}
		if h.Type == frameJrec {
			unacked += len(payload)
			owed = true
		}
		if owed && (fr.drained() || unacked >= batchBytes) {
			st.mu.Lock()
			durable := st.count
			st.mu.Unlock()
			ack, _ = appendFrame(ack[:0], frameHeader{Type: frameAck, Seq: durable}, nil) // an ack header cannot fail to encode
			if _, err := conn.Write(ack); err != nil {
				return
			}
			unacked, owed = 0, false
		}
	}
}

// applyFrame applies one inbound frame to the replica journal and the local
// engine. A journal record is durable in the replica file when it returns.
func (n *Node) applyFrame(st *replicaState, h frameHeader, payload []byte) error {
	switch h.Type {
	case frameAlloc:
		return n.applyAlloc(h)
	case frameField:
		return n.applyField(h, payload)
	case frameUnreg:
		n.applyUnreg(h)
		return nil
	case frameJrec:
		st.mu.Lock()
		defer st.mu.Unlock()
		if h.Seq <= st.count {
			return nil // duplicate from an overlapping file scan; already durable
		}
		if h.Seq != st.count+1 {
			return fmt.Errorf("journal gap: got seq %d, have %d", h.Seq, st.count)
		}
		// A raw newline would split the record into two lines of the
		// replica file, which a reopen then refuses as corrupt.
		if bytes.IndexByte(payload, '\n') >= 0 || !json.Valid(payload) {
			return fmt.Errorf("record %d is not one line of valid JSON", h.Seq)
		}
		if err := st.log.AppendLine(payload); err != nil {
			return err
		}
		st.count = h.Seq
		n.applyRecord(st, payload)
		return nil
	default:
		return fmt.Errorf("unexpected frame %q", h.Type)
	}
}

// applyAlloc mirrors an owner-side registration. Idempotent: a name already
// held (snapshot re-send) is left alone.
func (n *Node) applyAlloc(h frameHeader) error {
	if h.Tenant == "" || h.Alloc == "" || len(h.Dims) == 0 {
		return fmt.Errorf("malformed alloc frame for %q/%q", h.Tenant, h.Alloc)
	}
	if _, ok := n.eng.Table().ByTenantName(h.Tenant, h.Alloc); ok {
		return nil
	}
	arr, err := ndarray.TryNew(h.Dims...)
	if err != nil {
		return fmt.Errorf("alloc %q/%q: %w", h.Tenant, h.Alloc, err)
	}
	dtype := bitflip.Float64
	if h.DType == "float32" {
		dtype = bitflip.Float32
	}
	policy, err := policyFromWire(h.Policy)
	if err != nil {
		return fmt.Errorf("alloc %q/%q: %w", h.Tenant, h.Alloc, err)
	}
	if _, err := n.eng.ProtectTenant(h.Tenant, h.Alloc, arr, dtype, policy); err != nil {
		if errors.Is(err, registry.ErrNameTaken) {
			return nil // raced with another snapshot re-send
		}
		return fmt.Errorf("alloc %q/%q: %w", h.Tenant, h.Alloc, err)
	}
	return nil
}

// applyField overwrites the replica array with the owner's field snapshot,
// bit-exactly, with the codec an upload uses: stripe by stripe, each under
// its own lock, then the statistics of the stripes it committed are
// re-snapshotted — all of them, as the length is checked first.
func (n *Node) applyField(h frameHeader, payload []byte) error {
	a, ok := n.eng.Table().ByTenantName(h.Tenant, h.Alloc)
	if !ok {
		return nil // alloc frame lost to a reconnect; next snapshot repairs
	}
	if len(payload) != a.Array.Len()*8 {
		return fmt.Errorf("field %q/%q: %d bytes for %d cells", h.Tenant, h.Alloc, len(payload), a.Array.Len())
	}
	committed, err := httpapi.ReadField(n.eng, a.Array, bytes.NewReader(payload))
	n.eng.FieldUpdatedStripes(a.Array, committed)
	return err
}

// applyUnreg mirrors an owner-side teardown.
func (n *Node) applyUnreg(h frameHeader) {
	if a, ok := n.eng.Table().ByTenantName(h.Tenant, h.Alloc); ok {
		_ = n.eng.Unprotect(a)
	}
}

// applyRecord folds one replicated journal record into live state: intents
// quarantine the replica cell (exactly what replay would do), successful
// outcomes write the recovered IEEE-754 bits and lift the quarantine, failed
// outcomes leave the cell quarantined. Called with st.mu held.
func (n *Node) applyRecord(st *replicaState, line []byte) {
	rec, err := st.dec.Decode(line)
	if err != nil {
		return
	}
	intent, closed := st.intents.Apply(rec)
	if rec.Kind == journal.KindIntent {
		in := rec.Intent
		if a, ok := n.eng.Table().ByTenantName(in.Tenant, in.Alloc); ok {
			n.eng.MarkCorrupt(a, in.Offset)
		}
		return
	}
	out := rec.Outcome
	if !closed || !out.OK {
		return
	}
	if a, ok := n.eng.Table().ByTenantName(intent.Tenant, intent.Alloc); ok {
		if off := intent.Offset; off >= 0 && off < a.Array.Len() {
			// The one cell is written under the one stripe that owns it.
			n.eng.WithStripeLock(a.Array, n.eng.StripeOf(a.Array, off), func() {
				a.Array.SetOffset(off, math.Float64frombits(out.NewBits))
			})
		}
		n.eng.ClearCorrupt(a, intent.Offset)
	}
}

// danglingIntents returns the replica's unresolved intents sorted by ID —
// the promotion replay work-list.
func (st *replicaState) danglingIntents() []journal.Intent {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.intents.List()
}

// policyFromWire rebuilds a registry.Policy from its wire form.
func policyFromWire(w *policyWire) (registry.Policy, error) {
	if w == nil || w.Any {
		return registry.RecoverAny(), nil
	}
	m, err := predict.ParseMethod(w.Method)
	if err != nil {
		return registry.Policy{}, err
	}
	p := registry.RecoverWith(m)
	if w.Lo != nil && w.Hi != nil {
		p = p.WithRange(*w.Lo, *w.Hi)
	}
	return p, nil
}

// policyToWire converts a registry.Policy for the alloc frame.
func policyToWire(p registry.Policy) *policyWire {
	w := &policyWire{Any: p.Any}
	if !p.Any {
		w.Method = p.Method.String()
	}
	if p.Range != nil {
		lo, hi := p.Range.Lo, p.Range.Hi
		w.Lo, w.Hi = &lo, &hi
	}
	return w
}
