package serve

import (
	"strings"
	"testing"
	"time"
)

// The fuzz target in fuzz_test.go only executes its seed corpus when the
// fuzz engine runs it (plain `go test` with no -run filter, or -fuzz).
// This table test wires the same seeds into the ordinary test set so
// `go test -short -run Test` — the verify target's fast path — still
// exercises the HTTP decoder on every historical crash seed, against its
// invariants and against the reference decoder.

func TestParsePredictSeedCorpus(t *testing.T) {
	for _, seed := range parsePredictSeeds() {
		checkParsePredict(t, seed, 8)
		diffParsePredict(t, seed, 8)
		diffParsePredict(t, seed, 0) // no row budget
	}
}

// TestParsePredictAcceptance pins the decoder's verdict on each seed class:
// the valid shapes decode, each malformed class is rejected.
func TestParsePredictAcceptance(t *testing.T) {
	reject := []string{
		``,
		`{}`,
		`{"x": []}`,
		`{"x": [[]]}`,
		`{"x": [[1, 2], []]}`,
		`{"x": [[1], [2, 3]]}`,
		`{"x": [[1e999]]}`,
		`{"x": [[0]], "timeout_ms": -1}`,
		`{"x": [[0]], "priority": "urgent"}`,
		`{"x": [[0]], "bogus": true}`,
		`{"x": [[0]]} trailing`,
		`{"x": "not an array"}`,
		`{"x": [["NaN"]]}`,
		`[[1, 2]]`,
		`{"x": [[1],[2],[3],[4],[5],[6],[7],[8],[9]]}`,
	}
	for _, body := range reject {
		if _, _, _, err := ParsePredict(strings.NewReader(body), 8); err == nil {
			t.Errorf("malformed body accepted: %q", body)
		}
	}

	x, opts, timeout, err := ParsePredict(strings.NewReader(
		`{"x": [[1.5, -2.5], [0, 3.25]], "timeout_ms": 250, "priority": "high"}`), 8)
	if err != nil {
		t.Fatal(err)
	}
	if x.Shape[0] != 2 || x.Shape[1] != 2 {
		t.Fatalf("shape %v, want [2 2]", x.Shape)
	}
	if x.RowSlice(1)[1] != 3.25 {
		t.Fatalf("x[1][1] = %v, want 3.25", x.RowSlice(1)[1])
	}
	if opts.Priority != PriorityHigh {
		t.Fatalf("priority %v, want high", opts.Priority)
	}
	if timeout != 250*time.Millisecond {
		t.Fatalf("timeout %v, want 250ms", timeout)
	}

	// `{"x": [[null]]}` decodes null as 0 in Go's JSON — 0 is a legitimate
	// feature value, so acceptance is fine; what matters is it cannot smuggle
	// a NaN. Document the actual verdict either way.
	if x, _, _, err := ParsePredict(strings.NewReader(`{"x": [[null]]}`), 8); err == nil {
		if v := x.RowSlice(0)[0]; v != 0 {
			t.Fatalf("null decoded to %v, want 0", v)
		}
	}
}
