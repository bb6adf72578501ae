package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStartEndRecordsSpanTree(t *testing.T) {
	tr := New("master", 64)
	root := tr.Start(Context{}, "infer")
	child := tr.Start(root.Ctx(), "serialize")
	time.Sleep(time.Millisecond)
	child.End()
	grand := tr.Record(root.Ctx(), "network", "peer-1", StatusOK, time.Now(), 2*time.Millisecond)
	if !grand.Valid() {
		t.Fatalf("Record returned invalid context")
	}
	root.End()

	spans := tr.Snapshot(0)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	ids := tr.TraceIDs(0)
	if len(ids) != 1 {
		t.Fatalf("got %d trace ids, want 1: %v", len(ids), ids)
	}
	byName := map[string]Span{}
	for _, s := range tr.Trace(ids[0]) {
		byName[s.Name] = s
	}
	rootSpan := byName["infer"]
	if rootSpan.ParentID != 0 {
		t.Errorf("root span has parent %d", rootSpan.ParentID)
	}
	if byName["serialize"].ParentID != rootSpan.SpanID {
		t.Errorf("serialize parent = %d, want %d", byName["serialize"].ParentID, rootSpan.SpanID)
	}
	if byName["network"].ParentID != rootSpan.SpanID {
		t.Errorf("network parent = %d, want %d", byName["network"].ParentID, rootSpan.SpanID)
	}
	if byName["network"].Node != "peer-1" {
		t.Errorf("network node = %q, want peer-1", byName["network"].Node)
	}
	if d := byName["serialize"].Duration; d < time.Millisecond {
		t.Errorf("serialize duration %v < 1ms", d)
	}
	if rootSpan.Duration < byName["serialize"].Duration {
		t.Errorf("root %v shorter than child %v", rootSpan.Duration, byName["serialize"].Duration)
	}
}

func TestTreeRendering(t *testing.T) {
	tr := New("master", 64)
	root := tr.Start(Context{}, "infer")
	peer := tr.Record(root.Ctx(), "peer 127.0.0.1:7001", "", StatusOK, time.Now(), time.Millisecond)
	tr.Record(peer, "network", "", StatusOK, time.Now(), 600*time.Microsecond)
	tr.Record(peer, "compute", "127.0.0.1:7001", StatusOK, time.Now().Add(time.Microsecond), 400*time.Microsecond)
	tr.Record(root.Ctx(), "peer 127.0.0.1:7002", "", StatusSkipped, time.Now(), 0)
	root.End()

	out := tr.Tree(tr.TraceIDs(1)[0])
	for _, want := range []string{"infer", "├─ ", "└─ ", "compute", "[skipped]", "node=127.0.0.1:7001"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	// The nested network span must be indented deeper than its peer parent.
	lines := strings.Split(out, "\n")
	var peerIndent, netIndent int
	for _, ln := range lines {
		if strings.Contains(ln, "peer 127.0.0.1:7001") {
			peerIndent = len(ln) - len(strings.TrimLeft(ln, " │├└─"))
		}
		if strings.Contains(ln, "network") {
			netIndent = len(ln) - len(strings.TrimLeft(ln, " │├└─"))
		}
	}
	if netIndent <= peerIndent {
		t.Errorf("network indent %d not deeper than peer indent %d:\n%s", netIndent, peerIndent, out)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New("n", 4)
	for i := 0; i < 10; i++ {
		tr.Record(Context{}, "s", "", StatusOK, time.Now(), time.Duration(i))
	}
	spans := tr.Snapshot(0)
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	// Oldest-first: durations 6, 7, 8, 9 survive.
	for i, s := range spans {
		if want := time.Duration(6 + i); s.Duration != want {
			t.Errorf("span %d duration = %d, want %d", i, s.Duration, want)
		}
	}
	if got := len(tr.Snapshot(2)); got != 2 {
		t.Errorf("Snapshot(2) returned %d spans", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(Context{}, "x")
	sp.End()
	sp.EndErr(nil)
	if sp.Ctx().Valid() {
		t.Error("nil tracer produced a valid context")
	}
	if ctx := tr.Record(Context{}, "y", "", "", time.Now(), 0); ctx.Valid() {
		t.Error("nil Record produced a valid context")
	}
	if tr.Snapshot(0) != nil || tr.Len() != 0 || tr.Node() != "" {
		t.Error("nil tracer retains state")
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{
		TraceID:  0xdeadbeef,
		SpanID:   42,
		ParentID: 7,
		Name:     "network",
		Node:     "127.0.0.1:7001",
		Status:   StatusOK,
		Start:    time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Duration: 1500 * time.Microsecond,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"trace_id":"00000000deadbeef"`) {
		t.Errorf("ids not hex encoded: %s", data)
	}
	var out Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Start.Equal(in.Start) {
		t.Errorf("start %v != %v", out.Start, in.Start)
	}
	out.Start = in.Start
	if out != in {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New("n", 128)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				s := tr.Start(Context{}, "work")
				s.End()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tr.Len() != 128 {
		t.Errorf("ring len = %d, want full 128", tr.Len())
	}
}
