// Package trace is the end-to-end latency instrumentation of the runtime:
// per-request spans that decompose one collaborative inference into the
// stages the paper's evaluation measures (serialize, dial, network
// transfer, worker compute, entropy gating, retries), correlated across
// nodes by a trace ID that travels master → worker on the wire.
//
// The design is deliberately smaller than OpenTelemetry but shaped like it:
//
//   - A Context is the propagatable identity of a span: {TraceID, SpanID}.
//     The cluster protocol carries it as two fields of every pipelined
//     frame's header (DESIGN.md §7).
//   - A Tracer owns a bounded ring of completed spans. Recording is cheap
//     (one mutex, no allocation beyond the span) and dropping the oldest
//     trace under pressure is by design: this is a flight recorder, not a
//     durable log.
//   - Spans can be recorded live (Start/End around real work) or modeled
//     (Record with an explicit start and duration), which is how the
//     edgesim cost model emits the same span trees for simulated runs.
//
// Every method is nil-receiver safe: a nil *Tracer records nothing and a
// nil *Span is a no-op, so instrumented code paths need no "is tracing on"
// branches.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Context identifies a span for cross-node propagation. The zero Context
// means "no trace": instrumentation below it records nothing, and the wire
// encoders send zeros.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context belongs to a live trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Span statuses. Anything else is free-form (error text, etc.).
const (
	StatusOK    = "ok"
	StatusError = "error"
	// StatusSkipped marks work that was deliberately not attempted — a
	// quarantined peer under best-effort routing reports a skipped span
	// instead of vanishing from the tree, so operators can see the peer
	// was sick rather than absent.
	StatusSkipped = "skipped"
)

// Span is one completed timed stage of a trace.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	// Name is the stage ("infer", "serialize", "network", "compute", ...).
	Name string
	// Node is the reporting node ("master", a peer address, ...).
	Node     string
	Status   string
	Start    time.Time
	Duration time.Duration
}

// Context returns the span's identity for propagation to children.
func (s Span) Context() Context { return Context{TraceID: s.TraceID, SpanID: s.SpanID} }

// Tracer collects completed spans into a bounded ring, newest evicting
// oldest. Safe for concurrent use. The zero value is NOT ready; use New.
// A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	mu     sync.Mutex
	node   string
	spans  []Span // ring: insertion order until full, then next is the oldest
	next   int    // ring write cursor once full
	nextID uint64 // span + trace id counter
}

// DefaultCapacity bounds the span ring when New is given n <= 0: enough
// for a few hundred multi-peer queries.
const DefaultCapacity = 4096

// New returns a tracer identifying itself as node (reported on every span
// it records) holding at most n completed spans.
func New(node string, n int) *Tracer {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Tracer{node: node, spans: make([]Span, 0, n)}
}

// id returns the next span/trace id; t.mu must be held.
func (t *Tracer) id() uint64 {
	t.nextID++
	return t.nextID
}

// Node returns the tracer's node label ("" on a nil tracer).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Live span support ---------------------------------------------------------

// Active is an in-flight span returned by Start. End (or EndErr)
// completes it into the tracer's ring. A nil *Active is a no-op.
type Active struct {
	t     *Tracer
	span  Span
	ended bool
}

// Start opens a live span under parent (zero parent starts a new trace).
// Returns nil — a safe no-op — on a nil tracer.
func (t *Tracer) Start(parent Context, name string) *Active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traceID := parent.TraceID
	if traceID == 0 {
		traceID = t.id()
	}
	spanID := t.id()
	t.mu.Unlock()
	return &Active{t: t, span: Span{
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parent.SpanID,
		Name:     name,
		Node:     t.node,
		Status:   StatusOK,
		Start:    time.Now(),
	}}
}

// Ctx returns the active span's propagation context (zero on nil).
func (a *Active) Ctx() Context {
	if a == nil {
		return Context{}
	}
	return a.span.Context()
}

// End completes the span and records it. Idempotent.
func (a *Active) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.Duration = time.Since(a.span.Start)
	a.t.record(a.span)
}

// EndErr ends with StatusError when err != nil, StatusOK otherwise.
func (a *Active) EndErr(err error) {
	if a == nil {
		return
	}
	if err != nil {
		a.span.Status = StatusError
	}
	a.End()
}

// Retroactive span support --------------------------------------------------

// Record inserts a completed span with an explicit start and duration,
// returning its context so children can attach. This is how instrumentation
// reconstructs sub-stages it measured by hand (e.g. splitting a round trip
// into network and remote-compute time). node == "" uses the tracer's own
// label. Returns a zero Context on a nil tracer.
func (t *Tracer) Record(parent Context, name, node, status string, start time.Time, d time.Duration) Context {
	if t == nil {
		return Context{}
	}
	t.mu.Lock()
	traceID := parent.TraceID
	if traceID == 0 {
		traceID = t.id()
	}
	spanID := t.id()
	t.mu.Unlock()
	if node == "" {
		node = t.node
	}
	if status == "" {
		status = StatusOK
	}
	s := Span{
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parent.SpanID,
		Name:     name,
		Node:     node,
		Status:   status,
		Start:    start,
		Duration: d,
	}
	t.record(s)
	return s.Context()
}

// record appends into the ring.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.next] = s
	t.next++
	if t.next == cap(t.spans) {
		t.next = 0
	}
}

// Snapshot returns up to n most recently recorded spans, oldest first
// (n <= 0 means all retained). Nil tracers return nil.
func (t *Tracer) Snapshot(n int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	if len(t.spans) < cap(t.spans) {
		out = append(out, t.spans...)
	} else {
		out = append(out, t.spans[t.next:]...)
		out = append(out, t.spans[:t.next]...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Len reports how many completed spans are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// TraceIDs returns the distinct trace ids present in the ring in order of
// most recent completion (newest first), capped at n (n <= 0 means all).
func (t *Tracer) TraceIDs(n int) []uint64 {
	spans := t.Snapshot(0)
	seen := make(map[uint64]bool)
	var ids []uint64
	for i := len(spans) - 1; i >= 0; i-- {
		id := spans[i].TraceID
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
			if n > 0 && len(ids) == n {
				break
			}
		}
	}
	return ids
}

// Trace returns every retained span of one trace, sorted by start time.
func (t *Tracer) Trace(traceID uint64) []Span {
	var out []Span
	for _, s := range t.Snapshot(0) {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Tree renders one trace as an indented span tree, the block
// `teamnet-infer -trace` prints per query:
//
//	infer                              1.82ms  [master]
//	├─ serialize                       11µs    [master]
//	├─ peer 127.0.0.1:7001             1.61ms  [master]
//	│  ├─ network                      1.2ms   [master]
//	│  └─ compute                      410µs   [127.0.0.1:7001]
//	└─ gate                            2µs     [master]
//
// Orphan spans (parent evicted from the ring or recorded on another node)
// render as additional roots. Returns "" for an unknown trace.
func (t *Tracer) Tree(traceID uint64) string {
	spans := t.Trace(traceID)
	if len(spans) == 0 {
		return ""
	}
	byID := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	for _, s := range spans {
		if s.ParentID != 0 && byID[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	var render func(s Span, prefix, branch, childPrefix string)
	render = func(s Span, prefix, branch, childPrefix string) {
		label := s.Name
		if s.Status != StatusOK && s.Status != "" {
			label += " [" + s.Status + "]"
		}
		// Rune count, not byte length: the box-drawing runes are multi-byte.
		pad := 44 - utf8.RuneCountInString(prefix+branch+label)
		if pad < 1 {
			pad = 1
		}
		fmt.Fprintf(&b, "%s%s%s%s%-10v node=%s\n",
			prefix, branch, label, strings.Repeat(" ", pad), s.Duration.Round(time.Microsecond), s.Node)
		kids := children[s.SpanID]
		for i, k := range kids {
			if i == len(kids)-1 {
				render(k, prefix+childPrefix, "└─ ", "   ")
			} else {
				render(k, prefix+childPrefix, "├─ ", "│  ")
			}
		}
	}
	for _, r := range roots {
		render(r, "", "", "")
	}
	return b.String()
}
