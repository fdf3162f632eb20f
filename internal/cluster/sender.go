package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialdue/internal/journal"
)

// outMsg is one queued frame awaiting the replication stream.
type outMsg struct {
	h       frameHeader
	payload []byte
}

// snapshotItem is one locally-served allocation captured for the
// connect-time snapshot: registration geometry plus the field already
// serialized to the wire format (captured stripe by stripe at snapshot
// time, so a big field never holds the full array lock).
type snapshotItem struct {
	tenant, name string
	dims         []int
	dtype        string
	policy       *policyWire
	payload      []byte
}

// sender owns the owner → partner half of replication: it dials the
// partner's replication listener, resumes the journal stream from the
// partner's intact-record count, re-sends the full control snapshot
// (allocations + fields — idempotent, so reconnect and rejoin catch-up are
// the same code path), then tails the live journal via the Sink installed
// on the service's Recovery journal.
//
// The sink must never block a recovery worker, so it only does a
// non-blocking push into the outbox; overflow or a control-frame drop
// forces a reconnect, and the file re-scan from the partner's ack cursor
// repairs whatever the outbox lost. Journal records the file scan already
// covered are deduped by sequence number in the live loop.
type sender struct {
	self        string
	partner     NodeInfo
	journalPath string
	snapshot    func() []snapshotItem

	outbox   chan outMsg
	overflow atomic.Bool

	stop chan struct{}
	done chan struct{}

	lastAssigned atomic.Uint64 // newest journal seq handed to the sink
	lastAcked    atomic.Uint64 // newest seq the partner acknowledged

	mu        sync.Mutex
	conn      net.Conn
	downSince time.Time // zero while the partner session is healthy

	// ctl orders control-frame capture against the session snapshot: a
	// session sends only alloc/field frames captured after its own
	// snapshot, so both captures run under it. Lock order: ctl before the
	// node's mu and the engine's stripe locks, which the captures take;
	// nothing takes ctl while holding either. live is true from a
	// session's snapshot until the session ends; teardowns holds the
	// unreg frames the next session must send before its snapshot.
	ctl       sync.Mutex
	live      bool
	teardowns []outMsg
}

const (
	senderOutbox       = 4096
	dialTimeout        = time.Second
	frameWriteTimeout  = 5 * time.Second
	reconnectBaseDelay = 50 * time.Millisecond
	reconnectMaxDelay  = time.Second
)

func newSender(self string, partner NodeInfo, journalPath string, snapshot func() []snapshotItem) *sender {
	return &sender{
		self:        self,
		partner:     partner,
		journalPath: journalPath,
		snapshot:    snapshot,
		outbox:      make(chan outMsg, senderOutbox),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// sink is the journal.Sink installed on the service's recovery journal.
// Called with the journal lock held: push and return, never block.
func (s *sender) sink(seq uint64, line []byte) {
	s.lastAssigned.Store(seq)
	cp := append([]byte(nil), line...)
	select {
	case s.outbox <- outMsg{h: frameHeader{Type: frameJrec, Seq: seq}, payload: cp}:
	default:
		// Dropped: the live loop notices the gap (or the flag) and
		// reconnects, re-reading the lost records from the file.
		s.overflow.Store(true)
	}
}

// enqueueControl queues an alloc or field frame, built (payload captured)
// by build. While no session is up nothing is queued: the next session's
// snapshot carries the state, and a copy captured now would reach the
// partner after that newer snapshot and roll it back. A drop on a full
// outbox forces a reconnect, whose snapshot repairs it.
func (s *sender) enqueueControl(build func() outMsg) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.live {
		s.push(build())
	}
}

// enqueueTeardown queues an unreg frame. A snapshot carries no absence, so
// a teardown is never dropped: while no session is up, or when the outbox
// is full, it waits for the next session, which sends it before its
// snapshot.
func (s *sender) enqueueTeardown(m outMsg) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if !s.live || !s.push(m) {
		s.teardowns = append(s.teardowns, m)
	}
}

func (s *sender) push(m outMsg) bool {
	select {
	case s.outbox <- m:
		return true
	default:
		s.overflow.Store(true)
		return false
	}
}

// begin opens a session's control stream and returns what it sends before
// the journal: the pending teardowns, then the snapshot. Frames an earlier
// session left queued are drained here: their journal records are in the
// file the catch-up scan re-reads (the sink runs after the write), their
// alloc/field frames predate the snapshot, and only their teardowns still
// need sending.
func (s *sender) begin() ([]outMsg, []snapshotItem) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	var left []outMsg
	for drained := false; !drained; {
		select {
		case m := <-s.outbox:
			if m.h.Type == frameUnreg {
				left = append(left, m)
			}
		default:
			drained = true
		}
	}
	s.teardowns = append(left, s.teardowns...)
	s.overflow.Store(false)
	s.live = true
	return slices.Clone(s.teardowns), s.snapshot()
}

// sentTeardowns forgets the first k pending teardowns once a session has
// delivered them. Later ones only ever append.
func (s *sender) sentTeardowns(k int) {
	s.ctl.Lock()
	s.teardowns = slices.Delete(s.teardowns, 0, k)
	s.ctl.Unlock()
}

// end closes the session's control stream: control frames captured from
// here on wait for the next snapshot.
func (s *sender) end() {
	s.ctl.Lock()
	s.live = false
	s.ctl.Unlock()
}

// forceReconnect tears down the current session (if any); the run loop
// redials and re-snapshots. Promotion calls this so the snapshot grows the
// promoted tenants.
func (s *sender) forceReconnect() {
	s.mu.Lock()
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.mu.Unlock()
}

// lag reports journal records appended locally but not yet acknowledged by
// the partner.
func (s *sender) lag() uint64 {
	assigned, acked := s.lastAssigned.Load(), s.lastAcked.Load()
	if assigned <= acked {
		return 0
	}
	return assigned - acked
}

// downFor reports how long the partner session has been unhealthy (zero
// when connected).
func (s *sender) downFor() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.downSince.IsZero() {
		return 0
	}
	return time.Since(s.downSince)
}

func (s *sender) noteDown() {
	s.mu.Lock()
	if s.downSince.IsZero() {
		s.downSince = time.Now()
	}
	s.mu.Unlock()
}

func (s *sender) markUp(conn net.Conn) {
	s.mu.Lock()
	s.conn = conn
	s.downSince = time.Time{}
	s.mu.Unlock()
}

func (s *sender) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.forceReconnect()
	<-s.done
}

func (s *sender) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// run is the sender's session loop: dial, resume, snapshot, tail; on any
// error back off and start over. Runs until Stop.
func (s *sender) run() {
	defer close(s.done)
	delay := reconnectBaseDelay
	for {
		if s.stopped() {
			return
		}
		conn, err := net.DialTimeout("tcp", s.partner.Repl, dialTimeout)
		if err != nil {
			s.noteDown()
			select {
			case <-s.stop:
				return
			case <-time.After(delay):
			}
			if delay *= 2; delay > reconnectMaxDelay {
				delay = reconnectMaxDelay
			}
			continue
		}
		delay = reconnectBaseDelay
		err = s.session(conn)
		s.end()
		_ = conn.Close()
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		if s.stopped() {
			return
		}
		if err != nil {
			s.noteDown()
		}
		select {
		case <-s.stop:
			return
		case <-time.After(reconnectBaseDelay):
		}
	}
}

// send writes one frame under a write deadline, so a wedged partner surfaces
// as a session error instead of hanging the loop.
func (s *sender) send(conn net.Conn, h frameHeader, payload []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(frameWriteTimeout))
	return writeFrame(conn, h, payload)
}

// batch packs consecutive frames into one write. It is written when it
// reaches batchBytes or when the session has nothing more ready (flush);
// there is no timer. A frame whose payload alone exceeds batchBytes is
// written on its own, header and payload in one vectored write, and never
// copied into the batch.
type batch struct {
	conn net.Conn
	buf  []byte
}

func (b *batch) add(h frameHeader, payload []byte) error {
	if len(payload) > batchBytes {
		if err := b.flush(); err != nil {
			return err
		}
		hdr, err := appendFrame(b.buf[:0], h, nil)
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
		_ = b.conn.SetWriteDeadline(time.Now().Add(frameWriteTimeout))
		bufs := net.Buffers{hdr, payload}
		if _, err := bufs.WriteTo(b.conn); err != nil {
			return fmt.Errorf("cluster: write %s frame: %w", h.Type, err)
		}
		return nil
	}
	var err error
	if b.buf, err = appendFrame(b.buf, h, payload); err != nil {
		return err
	}
	if len(b.buf) >= batchBytes {
		return b.flush()
	}
	return nil
}

func (b *batch) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_ = b.conn.SetWriteDeadline(time.Now().Add(frameWriteTimeout))
	_, err := b.conn.Write(b.buf)
	b.buf = b.buf[:0]
	if err != nil {
		return fmt.Errorf("cluster: write frames: %w", err)
	}
	return nil
}

// resync ends a session that lost frames, so the next one resumes from the
// journal file and a fresh snapshot. What the batch holds is written first:
// its frames are valid and in order, and a teardown in it is nowhere else.
func (b *batch) resync() error {
	if err := b.flush(); err != nil {
		return err
	}
	return errOutboxOverflow
}

// session drives one connection to the partner until it breaks.
func (s *sender) session(conn net.Conn) error {
	// Hello carries our journal length: a partner holding MORE records than
	// we have knows our journal regressed (fresh file after a reset) and
	// rotates its replica rather than appending a diverged history.
	ownLen, err := journal.CountRecords(s.journalPath)
	if err != nil {
		return err
	}
	if err := s.send(conn, frameHeader{Type: frameHello, From: s.self, Seq: ownLen}, nil); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(frameWriteTimeout))
	h, err := readControlFrame(conn)
	if err != nil {
		return err
	}
	if h.Type != frameWelcome {
		return errUnexpectedFrame(h.Type)
	}
	resume := h.Resume
	_ = conn.SetReadDeadline(time.Time{})
	s.markUp(conn)

	// Ack reader: a tiny goroutine per session; exits when the conn closes.
	// Acks are cumulative, so it keeps the highest.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		r := bufio.NewReaderSize(conn, maxControlHeader)
		for {
			h, err := readControlFrame(r)
			if err != nil {
				return
			}
			if h.Type == frameAck {
				for {
					cur := s.lastAcked.Load()
					if h.Seq <= cur || s.lastAcked.CompareAndSwap(cur, h.Seq) {
						break
					}
				}
			}
		}
	}()
	defer func() { _ = conn.Close(); <-ackDone }()

	b := &batch{conn: conn, buf: make([]byte, 0, batchBytes+4<<10)}

	// Teardowns first, then the idempotent control snapshot: every
	// locally-served allocation and its current field. The partner drops
	// what was torn down, re-applies registrations (skipping names it
	// holds) and overwrites fields — making first connect, reconnect, and a
	// rejoining ex-owner's catch-up one code path. The teardowns are
	// written before they are forgotten.
	teardowns, items := s.begin()
	for _, m := range teardowns {
		if err := b.add(m.h, nil); err != nil {
			return err
		}
	}
	if err := b.flush(); err != nil {
		return err
	}
	s.sentTeardowns(len(teardowns))
	for _, item := range items {
		ah := frameHeader{Type: frameAlloc, Tenant: item.tenant, Alloc: item.name,
			Dims: item.dims, DType: item.dtype, Policy: item.policy}
		if err := b.add(ah, nil); err != nil {
			return err
		}
		fh := frameHeader{Type: frameField, Tenant: item.tenant, Alloc: item.name}
		if err := b.add(fh, item.payload); err != nil {
			return err
		}
	}

	// Journal catch-up: stream records past the partner's intact count from
	// the file. Records appended while we scan land in the outbox and are
	// deduped below by sequence number.
	sent := resume
	if err := journal.Records(s.journalPath, func(seq uint64, line []byte) error {
		if seq <= resume {
			return nil
		}
		if err := b.add(frameHeader{Type: frameJrec, Seq: seq}, line); err != nil {
			return err
		}
		sent = seq
		return nil
	}); err != nil {
		return err
	}

	// Live tail: take what the outbox holds into the batch, and write the
	// batch once nothing more is ready.
	for {
		var m outMsg
		select {
		case m = <-s.outbox:
		default:
			if err := b.flush(); err != nil {
				return err
			}
			select {
			case <-s.stop:
				return nil
			case m = <-s.outbox:
			}
		}
		if s.overflow.Load() {
			// Something was dropped; the file and the next snapshot have
			// the truth. Reconnect, but send a teardown in hand first: no
			// later session can recover one taken from the outbox.
			if m.h.Type == frameUnreg {
				if err := b.add(m.h, nil); err != nil {
					return err
				}
			}
			return b.resync()
		}
		if m.h.Type == frameJrec {
			if m.h.Seq <= sent {
				continue // already covered by the file scan
			}
			if m.h.Seq > sent+1 {
				return b.resync() // gap: records were dropped
			}
		}
		if err := b.add(m.h, m.payload); err != nil {
			return err
		}
		if m.h.Type == frameJrec {
			sent = m.h.Seq
		}
	}
}

type senderErr string

func (e senderErr) Error() string { return string(e) }

func errUnexpectedFrame(t string) error {
	return senderErr("cluster: unexpected frame " + t + " (want welcome)")
}

var errOutboxOverflow = senderErr("cluster: replication outbox overflowed; resyncing from journal file")
