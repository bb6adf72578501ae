package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"
)

// maxPredictBody bounds a predict request's JSON payload. At 8 MiB it fits
// thousands of MNIST-sized rows — far past MaxBatch — while keeping a
// hostile client from ballooning the decoder. A longer body is answered 413.
const maxPredictBody = 8 << 20

// PredictResponse is the JSON reply: one entry per input row.
type PredictResponse struct {
	// Probs[i] is row i's combined class distribution.
	Probs [][]float64 `json:"probs"`
	// Winners[i] is the index of the node whose expert won row i.
	Winners []int `json:"winners"`
	// Entropy[i] is the predictive entropy of row i's winning distribution.
	Entropy []float64 `json:"entropy"`
	// Degraded marks a partial-ensemble answer: some experts were
	// quarantined or too slow, and the reply combines only those that made
	// it. Absent (false) on full-ensemble answers.
	Degraded bool `json:"degraded,omitempty"`
	// Quorum reports how many nodes contributed when Degraded is set.
	Quorum *Quorum `json:"quorum,omitempty"`
	// Cached marks an answer served from the gateway's content-addressed
	// response cache: a byte-identical input was answered by this model
	// version within the cache TTL, so no inference ran. Absent (false) on
	// freshly computed answers — including coalesced ones, which share a
	// live inference. Degraded answers are never cached.
	Cached bool `json:"cached,omitempty"`
}

// Quorum is the participation metadata attached to degraded answers.
type Quorum struct {
	// Live is the number of nodes whose predictions are in the answer.
	Live int `json:"live"`
	// Nodes is the full ensemble size.
	Nodes int `json:"nodes"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the gateway's HTTP mux:
//
//	POST /predict   JSON inference (see ParsePredict/PredictResponse)
//
// Status mapping: 400 for malformed input, 413 for a body over
// maxPredictBody, 429 when the admission queue
// sheds (the client should back off), 503 on shutdown, 504 when the
// request's deadline expired, 500 for backend failures.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", g.handlePredict)
	return mux
}

func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	x, opts, timeout, err := ParsePredict(http.MaxBytesReader(w, r.Body, maxPredictBody), g.cfg.MaxBatch)
	if err != nil {
		code := http.StatusBadRequest
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSONError(w, code, err.Error())
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := g.PredictOpts(ctx, x, opts)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			// Back-pressure hint: how long until the admission queue has
			// drained at its current rate (docs/OPERATIONS.md).
			w.Header().Set("Retry-After", retryAfterSeconds(g.RetryAfter()))
		}
		writeJSONError(w, code, err.Error())
		return
	}
	resp := PredictResponse{
		Probs:   make([][]float64, res.Probs.Shape[0]),
		Winners: res.Winners,
		Entropy: res.Entropy,
	}
	if res.Degraded {
		resp.Degraded = true
		resp.Quorum = &Quorum{Live: res.Live, Nodes: res.Nodes}
	}
	resp.Cached = res.Cached
	for i := range resp.Probs {
		resp.Probs[i] = res.Probs.RowSlice(i)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// statusFor maps a gateway error to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrTooManyRows):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds renders a backoff duration as the whole-seconds form
// the Retry-After header wants, never below 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}
