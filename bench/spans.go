package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing in this benchmark is done from outside the program under test:
// a span is recorded around each call the bench makes into a layer's public
// functions. Spans live in memory and are written out once, at exit.

// span is one timed call. Spans of one recovery (or one request) share an
// Event id; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Event  uint64 `json:"event"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the log was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanLog collects spans from any goroutine.
type spanLog struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// openSpan is a started, unfinished span.
type openSpan struct {
	log *spanLog
	s   span
}

// begin starts a span; a nil log records nothing, so the same workload code
// runs traced and untraced.
func (l *spanLog) begin(name string, event, parent uint64) openSpan {
	if l == nil {
		return openSpan{}
	}
	return openSpan{log: l, s: span{
		ID: l.nextID.Add(1), Parent: parent, Event: event, Name: name,
		Start: int64(time.Since(l.origin)),
	}}
}

// end finishes the span and stores it.
func (o openSpan) end() {
	if o.log == nil {
		return
	}
	o.s.End = int64(time.Since(o.log.origin))
	o.log.mu.Lock()
	o.log.spans = append(o.log.spans, o.s)
	o.log.mu.Unlock()
}

// id is the span's identifier, for children to name as their parent.
func (o openSpan) id() uint64 { return o.s.ID }

// begin/end on a client log forward to the run's span log (nil when the run
// is untraced).
func (l *clientLog) begin(name string, event, parent uint64) openSpan {
	return l.spans.begin(name, event, parent)
}

func (l *clientLog) end(o openSpan) { o.end() }

// durationsUS returns the durations, in microseconds, of every span with
// the given name, in recording order.
func (l *spanLog) durationsUS(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// absorb moves other's spans into l, re-identified so IDs stay unique and
// re-based onto l's clock origin.
func (l *spanLog) absorb(other *spanLog) {
	if l == nil || other == nil {
		return
	}
	other.mu.Lock()
	spans := append([]span(nil), other.spans...)
	other.mu.Unlock()
	shift := int64(other.origin.Sub(l.origin))
	base := l.nextID.Add(uint64(len(spans))) - uint64(len(spans))
	remap := make(map[uint64]uint64, len(spans))
	for i := range spans {
		remap[spans[i].ID] = base + uint64(i) + 1
	}
	for i := range spans {
		spans[i].ID = remap[spans[i].ID]
		if spans[i].Parent != 0 {
			spans[i].Parent = remap[spans[i].Parent]
		}
		spans[i].Start += shift
		spans[i].End += shift
	}
	l.mu.Lock()
	l.spans = append(l.spans, spans...)
	l.mu.Unlock()
}

// count returns how many spans were recorded.
func (l *spanLog) count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// writeFile dumps every span as one JSON document.
func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
