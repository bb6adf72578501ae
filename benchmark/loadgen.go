package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Closed loop: each client is one goroutine with its own keep-alive
// HTTP/1.1 connection and sends its next request when the previous answer
// has been read — the paper's caller is a sensing node that waits for its
// answer. The client count is part of the benchmark's definition (it equals
// nproc on the sizing host) and is not read from the machine.
const (
	clients       = 2
	clientTimeout = 5 * time.Second
	precheck      = 64  // responses verified before each timed window
	sampleEvery   = 16  // then every 16th response of the window, per client
	probeReplays  = 200 // requests of a traced round replayed through the layer probes
)

// predictResponse mirrors the /predict reply as an operator sees it.
type predictResponse struct {
	Probs    [][]float64     `json:"probs"`
	Winners  []int           `json:"winners"`
	Entropy  []float64       `json:"entropy"`
	Degraded bool            `json:"degraded"`
	Quorum   json.RawMessage `json:"quorum"`
	Cached   bool            `json:"cached"`
}

// request is one operation: the root span of its trace. Times are offsets
// from the round's start.
type request struct {
	id         uint64 // first row id; the body holds rows id … id+rows-1
	start, end time.Duration
	fail       string           // "" when HTTP 200 and well-formed
	cached     bool             // the reply said cached: true
	resp       *predictResponse // kept only for oracle samples and probe replays
}

// segment is one stretch of a round's window, between two samples of the
// fleet's CPU clock. The end-to-end metrics are computed per segment, from the
// replies that completed inside it.
type segment struct {
	length    time.Duration
	cpu       float64   // seconds the fleet spent on a CPU
	latencies []float64 // ms, sorted, of the good replies
}

// roundResult is everything one fleet lifetime produced.
type roundResult struct {
	wl       workload
	round    int
	begin    time.Time     // start of the warm-up; every offset below is from here
	window   time.Duration // measured window: first CPU sample to last
	t0       time.Duration // window start as an offset from the round's start
	setup    time.Duration
	requests []request          // all sent, warm-up included, in completion order per client
	edges    []time.Duration    // when the fleet's CPU clock was sampled: the segments' edges
	segments []segment          // len(edges)-1
	cpu      map[string]float64 // per role, over the whole window
	rssMB    float64
	before   map[string]series // traced rounds only: scrape at window start
	after    map[string]series // scrape once the window has closed

	// Filled by summarize / verify.
	good       int       // HTTP 200, well-formed, inside the window
	latencies  []float64 // ms, sorted, of the good ones
	failed     int       // any failure, warm-up included, plus oracle mismatches
	verified   int
	cachedGood int
}

// measured reports whether q completed inside the window. A request under
// way when the window opens counts: the warm-up is the same traffic.
func (r *roundResult) measured(q *request) bool {
	return q.end >= r.t0 && q.end < r.t0+r.window
}

// runRound starts a fresh fleet, warms it, measures one window cut into
// wl.segment-long segments and stops the fleet. With traced set it also scrapes
// /metrics at both window edges and keeps the first probeReplays responses
// for the probes.
func runRound(ctx context.Context, e *env, wl workload, seed int64, round int, warm, window time.Duration, traced bool) (res *roundResult, err error) {
	ready := appendBody(nil, make([]byte, wl.features), seed, readyID(round), wl.rows)
	label := fmt.Sprintf("%s-seed%d-round%d", wl.name, seed, round)
	fl, err := startFleet(ctx, e, wl, label, ready)
	if err != nil {
		return nil, err
	}
	// The one place the fleet stops, also when the generator panics; its
	// hygiene failures fail the round.
	defer func() {
		if err = errors.Join(err, fl.stop(err != nil)); err != nil {
			res = nil
		}
	}()

	begin := time.Now()
	res = &roundResult{wl: wl, round: round, begin: begin, setup: fl.setup}
	nseg := max(int(window/wl.segment), 1) // a window shorter than a segment is one segment
	t0, t1 := begin.Add(warm), begin.Add(warm+window)

	perClient := make([][]request, clients)
	clientErr := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A bug in the generator must not orphan the fleet: report it
			// and let runRound unwind through fl.stop.
			defer func() {
				if p := recover(); p != nil {
					clientErr[c] = fmt.Errorf("client %d panicked: %v", c, p)
				}
			}()
			perClient[c] = runClient(ctx, wl, fl.predict, seed, round, c, begin, t0, t1, traced)
		}(c)
	}

	// Segment edges: the fleet's CPU clock (and /metrics at the first, when
	// traced) is read here, so the clients never stop for it. A segment runs
	// from one reading to the next, whenever the scheduler let that happen.
	var cpuAt []map[string]float64
	edges := func() error {
		for k := 0; k <= nseg; k++ {
			if err := sleepUntil(ctx, t0.Add(window*time.Duration(k)/time.Duration(nseg))); err != nil {
				return err
			}
			res.edges = append(res.edges, time.Since(begin))
			cpu, err := fl.cpuSeconds()
			if err != nil {
				return err
			}
			cpuAt = append(cpuAt, cpu)
			if traced && k == 0 {
				if res.before, err = fl.scrape(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err = edges()
	wg.Wait()
	if err = errors.Join(err, errors.Join(clientErr...)); err != nil {
		return nil, err
	}
	if res.after, err = fl.scrape(); err != nil {
		return nil, err
	}
	res.rssMB = fl.rssPeakMB()

	res.t0, res.window = res.edges[0], res.edges[nseg]-res.edges[0]
	res.cpu = map[string]float64{}
	for role, v := range cpuAt[nseg] {
		res.cpu[role] = v - cpuAt[0][role]
	}
	res.segments = make([]segment, nseg)
	for k := range res.segments {
		res.segments[k].length = res.edges[k+1] - res.edges[k]
		for role, v := range cpuAt[k+1] {
			res.segments[k].cpu += v - cpuAt[k][role]
		}
	}
	for _, reqs := range perClient {
		res.requests = append(res.requests, reqs...)
	}
	res.summarize()
	return res, nil
}

func sleepUntil(ctx context.Context, at time.Time) error {
	select {
	case <-time.After(time.Until(at)):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func runClient(ctx context.Context, wl workload, url string, seed int64, round, c int, begin, t0, t1 time.Time, traced bool) []request {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	httpc := &http.Client{Transport: tr, Timeout: clientTimeout}
	nextID := idStream(wl, seed, round, c)
	px := make([]byte, wl.features)
	var body []byte
	var reply bytes.Buffer
	var out []request
	inWindow := 0
	for ctx.Err() == nil {
		id := nextID()
		body = appendBody(body[:0], px, seed, id, wl.rows)
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			panic(err) // the URL is ours
		}
		hreq.Header.Set("Content-Type", "application/json")
		start := time.Now()
		if !start.Before(t1) {
			break
		}
		status := 0
		resp, err := httpc.Do(hreq)
		if err == nil {
			status = resp.StatusCode
			reply.Reset()
			_, err = reply.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		end := time.Now()

		q := request{id: id, start: start.Sub(begin), end: end.Sub(begin)}
		var pr predictResponse
		switch {
		case err != nil:
			q.fail = "transport: " + err.Error()
		case status != http.StatusOK:
			q.fail = fmt.Sprintf("HTTP %d: %.120s", status, reply.Bytes())
		default:
			q.fail = wellFormed(reply.Bytes(), &pr, wl)
			q.cached = pr.Cached
		}
		// Keep the reply for the oracle: the first responses of the
		// warm-up, then every sampleEvery-th of the window; and for the
		// probes, the first of a traced window.
		keep := false
		if start.Before(t0) {
			keep = len(out) < precheck/clients
		} else {
			keep = inWindow%sampleEvery == 0 || (traced && inWindow < probeReplays/clients)
			inWindow++
		}
		if keep && q.fail == "" {
			q.resp = &pr
		}
		out = append(out, q)
	}
	return out
}

// wellFormed decodes a 200 reply and checks its shape: one result row per
// input row, a full-ensemble answer, and cached: true only where the
// workload repeats inputs.
func wellFormed(raw []byte, pr *predictResponse, wl workload) string {
	if err := json.Unmarshal(raw, pr); err != nil {
		return "malformed reply: " + err.Error()
	}
	if len(pr.Probs) != wl.rows || len(pr.Winners) != wl.rows || len(pr.Entropy) != wl.rows {
		return fmt.Sprintf("reply has %d/%d/%d probs/winners/entropy rows for %d inputs",
			len(pr.Probs), len(pr.Winners), len(pr.Entropy), wl.rows)
	}
	if pr.Degraded {
		return fmt.Sprintf("degraded answer (quorum %s)", pr.Quorum)
	}
	if pr.Cached && !wl.zipf {
		return "cached: true for an input never sent before"
	}
	return ""
}

// summarize derives the round's counts and the sorted latency sample from
// its requests; verify calls it again once the oracle has had its say.
func (r *roundResult) summarize() {
	r.good, r.failed, r.cachedGood = 0, 0, 0
	r.latencies = r.latencies[:0]
	for k := range r.segments {
		r.segments[k].latencies = r.segments[k].latencies[:0]
	}
	for i := range r.requests {
		q := &r.requests[i]
		if q.fail != "" {
			r.failed++
			continue
		}
		if r.measured(q) {
			r.good++
			if q.cached {
				r.cachedGood++
			}
			ms := float64(q.end-q.start) / float64(time.Millisecond)
			r.latencies = append(r.latencies, ms)
			// The segment q completed in: the last edge at or before its end.
			k := sort.Search(len(r.edges), func(i int) bool { return r.edges[i] > q.end }) - 1
			r.segments[k].latencies = append(r.segments[k].latencies, ms)
		}
	}
	sort.Float64s(r.latencies)
	for k := range r.segments {
		sort.Float64s(r.segments[k].latencies)
	}
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// firstFailures lists up to n distinct failure reasons, for the report.
func (r *roundResult) firstFailures(n int) []string {
	seen := map[string]bool{}
	var out []string
	for i := range r.requests {
		f := r.requests[i].fail
		if f != "" && !seen[f] && len(out) < n {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}
