package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// Fuzz target for the gateway's HTTP request decoder: ParsePredict faces
// JSON from untrusted clients and must never panic, everything it accepts
// must satisfy the invariants the batcher depends on (rectangular,
// non-empty, finite, within the row budget), and its outcome must be the
// one the encoding/json decoder it replaced (parse_reference_test.go) would
// have reached. `go test` runs the seed corpus; `go test
// -fuzz=FuzzParsePredictDiff ./internal/serve` explores further (CI gives
// it 20 s). The seeds are mirrored into TestParsePredictSeedCorpus
// (seeds_test.go) so the verify target's -run Test path executes them too.

func parsePredictSeeds() []string {
	return []string{
		``,
		`{}`,
		`{"x": []}`,
		`{"x": [[]]}`,                // zero-width row
		`{"x": [[1, 2], []]}`,        // ragged: second row empty
		`{"x": [[1], [2, 3]]}`,       // ragged: second row wider
		`{"x": [[1e999]]}`,           // overflows float64 → +Inf in some decoders
		`{"x": [[1.5, -2.5, 3.25]]}`, // valid single row
		`{"x": [[0]], "timeout_ms": -1}`,
		`{"x": [[0]], "timeout_ms": 250, "priority": "high"}`,
		`{"x": [[0]], "priority": "urgent"}`, // unknown lane
		`{"x": [[0]], "bogus": true}`,        // unknown field
		`{"x": [[0]]} trailing`,              // trailing garbage
		`{"x": "not an array"}`,
		`{"x": [[null]]}`,
		`{"x": [["NaN"]]}`,
		`[[1, 2]]`,                                     // bare array, not an object
		`{"x": [[1],[2],[3],[4],[5],[6],[7],[8],[9]]}`, // over an 8-row budget

		// The number grammar: what JSON allows, and the near misses.
		`{"x": [[0, -0, -0.0, 0.0, 0e0, 0E+5, -0e-5]]}`,
		`{"x": [[1E3, 1e+3, 1e-3, 12.5e-1, 1e22, 1e23, 1e-22, 1e-23]]}`,
		`{"x": [[5e-324, 2.2250738585072014e-308, 4.9e-324, 1e-400]]}`, // subnormals, underflow to 0
		`{"x": [[1.7976931348623157e308, -1.7976931348623157e308]]}`,
		`{"x": [[1.7976931348623159e308]]}`, // rounds to +Inf: out of range
		`{"x": [[9007199254740991, 9007199254740992, 9007199254740993, 9007199254740995]]}`,
		`{"x": [[1234567890123456789, 12345678901234567890, 123456789012345678901234567890]]}`,
		`{"x": [[0.1234567890123456789012345678901, 0.18446744073709551616, 184467440737095516.16e-18]]}`,
		`{"x": [[0.000000000000000000000000000001, 1000000000000000000000000000000]]}`,
		`{"x": [[0.3, 0.1, 0.7, 2.675, 1.005, 0.5020, 0.9961]]}`,
		`{"x": [[1e5000000000000000000000, 1e-5000000000000000000000]]}`,
		`{"x": [[01]]}`,
		`{"x": [[1.]]}`,
		`{"x": [[.5]]}`,
		`{"x": [[+1]]}`,
		`{"x": [[1e]]}`,
		`{"x": [[1e+]]}`,
		`{"x": [[-]]}`,
		`{"x": [[- 1]]}`,
		`{"x": [[1.e5]]}`,
		`{"x": [[0x10]]}`,
		`{"x": [[1_000]]}`,
		`{"x": [[Infinity]]}`,
		`{"x": [[NaN]]}`,
		`{"x": [[1 2]]}`,
		`{"x": [[1,]]}`,
		`{"x": [[1],]}`,
		`{"x": [[1]],}`,
		`{"x": [[1]]`,
		`{"x": [[1]`,
		`{"x": [[1`,
		`{"x": [[`,
		`{"x"`,
		`{"x`,
		`{`,

		// Wrong types, null where encoding/json shrugs, booleans nowhere.
		`null`,
		`null null`,
		`nul`,
		`true`,
		`"x"`,
		`7`,
		`{"x": null}`,
		`{"x": [null]}`,
		`{"x": [[1], null]}`,
		`{"x": [[1, null, 3], [null, 5, null]]}`,
		`{"x": [[nul]]}`,
		`{"x": [[nullx]]}`,
		`{"x": [[true]]}`,
		`{"x": [[{}]]}`,
		`{"x": [[[1]]]}`,
		`{"x": [1, 2]}`,
		`{"x": {"0": [1]}}`,
		`{"x": 7}`,
		`{"x": [[0]], "timeout_ms": null, "priority": null}`,
		`{"x": [[0]], "timeout_ms": 0}`,
		`{"x": [[0]], "timeout_ms": -0}`,
		`{"x": [[0]], "timeout_ms": 1.0}`,
		`{"x": [[0]], "timeout_ms": 1e3}`,
		`{"x": [[0]], "timeout_ms": "250"}`,
		`{"x": [[0]], "timeout_ms": 9223372036854}`,
		`{"x": [[0]], "timeout_ms": 9223372036855}`,       // past what a time.Duration holds
		`{"x": [[0]], "timeout_ms": 9223372036854775807}`, // … where the old product wrapped to -1ms
		`{"x": [[0]], "timeout_ms": 9223372036854775808}`,
		`{"x": [[0]], "timeout_ms": -9223372036854775808}`,
		`{"x": [[0]], "priority": "normal"}`,
		`{"x": [[0]], "priority": ""}`,
		`{"x": [[0]], "priority": "High"}`,
		`{"x": [[0]], "priority": 1}`,
		`{"x": [[0]], "priority": ["high"]}`,

		// Keys: case folding (with the two non-ASCII letters that fold to
		// ASCII), escapes, duplicates, and what is not a key.
		`{"X": [[1]], "TIMEOUT_MS": 5, "Priority": "high"}`,
		`{"x": [[1]], "timeout_mſ": 7}`,
		`{"\u0078": [[1]], "\u0050riority": "high"}`,
		`{"x": [[0]], "priority": "\u0068igh"}`,
		`{"x": [[0]], "priority": "hi\gh"}`,
		`{"x": [[0]], "priority": "a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00\ud800\udc00x\ud800y\udc00"}`,
		`{"x": [[0]], "priority": "\ud800\u0041"}`,
		`{"x": [[0]], "priority": "\u12G4"}`,
		`{"x": [[0]], "priority": "\u12"}`,
		"{\"x\": [[0]], \"priority\": \"tab\there\"}",
		"{\"x\": [[0]], \"priority\": \"\xff\xfe\"}",
		"{\"x\": [[0]], \"priority\": \"\x7f\"}",
		"{\"\xff\": 1}",
		`{"x": [[0]], "priority": "high`,
		`{"x": [[0]], "priority": "high\`,
		`{"x": [[0]], "": 1}`,
		`{"x ": [[0]]}`,
		`{x: [[0]]}`,
		`{'x': [[0]]}`,
		`{"x" [[0]]}`,
		`{"x":: [[0]]}`,
		`{"x": [[0]] "timeout_ms": 1}`,
		`{"x": [[1]], "x": [[2, 3]]}`,
		`{"x": [[1]], "X": [[2], [3]], "timeout_ms": 1, "timeout_ms": 2, "priority": "high", "priority": "normal"}`,
		`{"x": [[1]], "x": []}`,
		`{"x": [[1]], "x": null}`,
		`{"x": null, "x": [[1]]}`,
		`{"x": [[0]], "timeout_ms": 5, "timeout_ms": null}`,
		`{"x": [[0]], "priority": "high", "priority": null}`,

		// Where the scanner departs from the reference on purpose.
		`{"x": [[0]]}}`,
		`{"x": [[0]]}]garbage`,
		`{"x": [[0]]} }`,
		`{"x": []}}`,
		`{"x": [[5, 6]], "x": [[null, 7]]}`,
		`{"x": [[1, 2, 3]], "x": [[7]], "x": [[null, null, null]]}`,
		`{"x": [[1],[2],[3],[4],[5],[6],[7],[8],[9]], "x": [[1]]}`,
		`{"x": [[1], [2, 3]], "x": [[1]]}`,
		`{"x": [[]], "x": [[1]]}`,

		// Whitespace, and bytes that are not.
		" \t\r\n{ \"x\" \n:\t[ [ 1 , 2 ] , [ 3 , 4 ] ] \r\n} \n",
		"\ufeff{\"x\": [[0]]}",
		"{\"x\": [[0]]}\x00",
		"\x00",
		"{\"x\":\v[[0]]}",
		"{\"x\": [[0\u00a0]]}",
	}
}

func checkParsePredict(t *testing.T, body string, maxRows int) {
	t.Helper()
	x, _, timeout, err := ParsePredict(strings.NewReader(body), maxRows)
	if err != nil {
		return
	}
	if x == nil || x.Rank() != 2 {
		t.Fatalf("accepted input decoded to non-matrix tensor: %v", x)
	}
	rows, width := x.Shape[0], x.Shape[1]
	if rows < 1 || width < 1 {
		t.Fatalf("accepted empty tensor %dx%d from %q", rows, width, body)
	}
	if maxRows > 0 && rows > maxRows {
		t.Fatalf("accepted %d rows past budget %d from %q", rows, maxRows, body)
	}
	if len(x.Data) != rows*width {
		t.Fatalf("tensor data length %d != %d*%d", len(x.Data), rows, width)
	}
	for i, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("accepted non-finite value %v at flat index %d from %q", v, i, body)
		}
	}
	if timeout < 0 {
		t.Fatalf("accepted negative timeout %v from %q", timeout, body)
	}
}

// isVerdict reports one of ParsePredict's own verdicts on x, timeout_ms or
// priority, as opposed to a body it could not decode.
func isVerdict(err error) bool {
	return err != nil && !strings.HasPrefix(err.Error(), "bad request body: ")
}

// bodyFacts are the properties that put a body in a class where ParsePredict
// departs from the reference on purpose.
type bodyFacts struct {
	trailing    bool // non-whitespace follows the first JSON value
	repeatsX    bool // the object has more than one x field, under any case
	longTimeout bool // timeout_ms is an integer past maxTimeoutMS
}

func factsOf(body string) (f bodyFacts) {
	dec := json.NewDecoder(strings.NewReader(body))
	var first json.RawMessage
	if dec.Decode(&first) != nil {
		return f
	}
	f.trailing = strings.TrimLeft(body[dec.InputOffset():], " \t\r\n") != ""
	var req predictRequest
	json.Unmarshal(first, &req) // whatever it could not decode stays zero
	f.longTimeout = int64(req.TimeoutMS) > maxTimeoutMS

	dec = json.NewDecoder(strings.NewReader(body))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return f
	}
	count := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			break
		}
		if name, ok := key.(string); ok && strings.EqualFold(name, "x") {
			count++
		}
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			break
		}
	}
	f.repeatsX = count > 1
	return f
}

// diffParsePredict holds ParsePredict to the reference decoder on one body:
// the same verdict, shape, float64 bits, options and timeout, and the same
// error text wherever the reference's error was a verdict of ours rather
// than encoding/json's wording. The same body fed one byte at a time must
// decode to the same outcome as fed whole.
//
// The deliberate departures (README "Client contract"):
//
//  1. Anything but whitespace after the object is trailing data. The
//     reference's Decoder.More let a stray ']' or '}' (and everything after
//     it) through.
//  2. When x occurs more than once the last one still wins, but each one is
//     held to the shape rules and the row budget as it is scanned; the
//     reference only ever looked at the last.
//  3. A null feature is 0. In a repeated x the reference decoded into the
//     previous slice, where null left the earlier value standing.
//  4. A timeout_ms past maxTimeoutMS is refused. The reference multiplied
//     it into a time.Duration that wrapped, sometimes to a negative one.
func diffParsePredict(t *testing.T, body string, maxRows int) {
	t.Helper()
	want, wantOpts, wantTimeout, wantErr := parsePredictReference(strings.NewReader(body), maxRows)
	got, opts, timeout, err := ParsePredict(strings.NewReader(body), maxRows)

	slow, slowOpts, slowTimeout, slowErr := ParsePredict(iotest.OneByteReader(strings.NewReader(body)), maxRows)
	if (err == nil) != (slowErr == nil) || err != nil && err.Error() != slowErr.Error() {
		t.Fatalf("fed whole: %v; fed bytewise: %v; body %q", err, slowErr, body)
	}
	if err == nil && (opts != slowOpts || timeout != slowTimeout || got.Shape[0] != slow.Shape[0] || !sameBits(got.Data, slow.Data)) {
		t.Fatalf("fed whole and fed bytewise decode differently; body %q", body)
	}

	facts := factsOf(body)
	departs := facts.trailing || facts.repeatsX || facts.longTimeout
	if wantErr != nil {
		switch {
		case err == nil:
			t.Fatalf("accepted a body the reference rejects (%v): %q", wantErr, body)
		case !isVerdict(wantErr) || departs:
			// encoding/json's wording, or a class where the scanner may meet
			// a different fault first: the rejection is what must agree.
		case strings.HasPrefix(wantErr.Error(), "x has "):
			// The reference counted every row before ruling on the budget; the
			// scanner stops at the first row past it, or at a shape fault it
			// meets on the way.
			if !isVerdict(err) {
				t.Fatalf("reference: %v; got: %v; body %q", wantErr, err, body)
			}
		case err.Error() != wantErr.Error():
			t.Fatalf("reference: %v; got: %v; body %q", wantErr, err, body)
		}
		return
	}

	switch {
	case facts.trailing: // departure 1
		if err == nil || err.Error() != "bad request body: trailing data after JSON object" {
			t.Fatalf("body with trailing data: got %v, want the trailing-data error; body %q", err, body)
		}
		return
	case facts.longTimeout: // departure 4
		if err == nil {
			t.Fatalf("accepted a timeout_ms past %d; body %q", maxTimeoutMS, body)
		}
		return
	case err != nil && facts.repeatsX && isVerdict(err): // departure 2
		return
	case err != nil:
		t.Fatalf("rejected a body the reference accepts: %v; body %q", err, body)
	}
	if got.Rank() != 2 || got.Shape[0] != want.Shape[0] || got.Shape[1] != want.Shape[1] {
		t.Fatalf("shape %v, reference %v; body %q", got.Shape, want.Shape, body)
	}
	if opts != wantOpts || timeout != wantTimeout {
		t.Fatalf("options %+v timeout %v, reference %+v %v; body %q", opts, timeout, wantOpts, wantTimeout, body)
	}
	for i := range want.Data {
		g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i])
		if g != w && !(facts.repeatsX && g == 0) { // departure 3
			t.Fatalf("x flat index %d: %v (%#x), reference %v (%#x); body %q", i, got.Data[i], g, want.Data[i], w, body)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func FuzzParsePredictDiff(f *testing.F) {
	for _, seed := range parsePredictSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkParsePredict(t, body, 8)
		diffParsePredict(t, body, 8)
	})
}
