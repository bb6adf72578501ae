package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// The decoder ParsePredict replaced, kept word for word as the reference the
// scanner in parse.go is compared with (FuzzParsePredictDiff, the seed
// corpus, TestScanNumberMatchesParseFloat). It is the specification of the
// verdicts, the shapes, the float64 bits, the options and the timeout; the
// three places the scanner departs from it on purpose are spelled out in
// diffParsePredict.

// predictRequest is the JSON body of POST /predict as encoding/json saw it.
type predictRequest struct {
	X         [][]float64 `json:"x"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
	Priority  string      `json:"priority,omitempty"`
}

func parsePredictReference(body io.Reader, maxRows int) (*tensor.Tensor, Options, time.Duration, error) {
	var req predictRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, Options{}, 0, fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return nil, Options{}, 0, errors.New("bad request body: trailing data after JSON object")
	}
	if len(req.X) == 0 {
		return nil, Options{}, 0, errors.New("x must contain at least one row")
	}
	if maxRows > 0 && len(req.X) > maxRows {
		return nil, Options{}, 0, fmt.Errorf("x has %d rows; this gateway accepts at most %d per request", len(req.X), maxRows)
	}
	width := len(req.X[0])
	if width == 0 {
		return nil, Options{}, 0, errors.New("x rows must be non-empty feature vectors")
	}
	for i, row := range req.X {
		if len(row) != width {
			return nil, Options{}, 0, fmt.Errorf("ragged input: row 0 has %d features, row %d has %d", width, i, len(row))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, Options{}, 0, fmt.Errorf("non-finite value at x[%d][%d]", i, j)
			}
		}
	}
	if req.TimeoutMS < 0 {
		return nil, Options{}, 0, errors.New("timeout_ms must be non-negative")
	}
	var opts Options
	switch req.Priority {
	case "", "normal":
	case "high":
		opts.Priority = PriorityHigh
	default:
		return nil, Options{}, 0, fmt.Errorf("unknown priority %q (want \"normal\" or \"high\")", req.Priority)
	}
	x := tensor.New(len(req.X), width)
	for i, row := range req.X {
		copy(x.RowSlice(i), row)
	}
	return x, opts, time.Duration(req.TimeoutMS) * time.Millisecond, nil
}
