// Command benchmark measures the request path this repository ships: it
// builds teamnet-train, teamnet-node and teamnet-serve from the checkout,
// starts a fleet of those processes with flag defaults for each workload,
// drives POST /predict over loopback HTTP from a closed-loop generator,
// checks the answers against an in-process reference, and prints every
// metric of BENCHMARK.json by name. README.md has the definitions.
//
//	go run ./benchmark -seed 1                    all four workloads, end to end and per layer
//	go run ./benchmark -selfcheck                 twice, and compare within the bounds
//	go run ./benchmark --workload batch16 --seed 7 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Every workload runs `rounds` untraced rounds, each on a fresh fleet, and
// every end-to-end metric is the best segment of their windows (setup_s: the
// median set-up). A traced run adds one more round whose numbers never enter
// the end-to-end values.
const (
	rounds = 3
	warmUp = time.Second
)

// spec is BENCHMARK.json: the one place metric names, units, directions and
// bounds are written down. The program computes values by name and refuses
// to report if one the spec lists is missing.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot walks up from the working directory to the checkout's root: the
// directory holding both go.mod and BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, modErr := os.Stat(filepath.Join(dir, "go.mod"))
		_, specErr := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		if modErr == nil && specErr == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory above the working directory holds go.mod and BENCHMARK.json")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// config is one benchmark run.
type config struct {
	seed      int64
	workloads []workload
	warm      time.Duration
	window    time.Duration // per round
	rounds    int
	traced    bool
	// minGood is the fewest good responses a window may hold: p95 is
	// reported only with at least ten samples beyond it.
	minGood int
}

// outcome is one workload's share of a run.
type outcome struct {
	wl      workload
	rounds  []*roundResult
	traced  *roundResult
	probes  *probed
	invalid []string // failed validity checks and failure samples

	samples map[string][]float64 // end-to-end metric → one value per segment of the untraced rounds (setup_s: per round)
	e2e     map[string]float64   // … → the value reported, see steady
	layers  map[string]float64   // per-layer metric → value, from the traced round

	budget        []budgetLine
	meanLatencyUS float64 // of the traced round
}

func (o *outcome) all() []*roundResult {
	if o.traced == nil {
		return o.rounds
	}
	return append(append([]*roundResult(nil), o.rounds...), o.traced)
}

func (o *outcome) counts() (attempted, failed int) {
	for _, r := range o.all() {
		attempted += len(r.requests)
		failed += r.failed
	}
	return attempted, failed
}

// run executes cfg: rounds interleaved across workloads (w1 w2 …, w1 w2 …)
// so drift in the host lands on all of them alike, then the traced rounds,
// each followed by its probes. The oracle runs after each round's fleet has
// stopped.
func run(ctx context.Context, e *env, cfg config) ([]*outcome, error) {
	outs := make([]*outcome, len(cfg.workloads))
	oracles := map[string]*oracle{}
	for i, wl := range cfg.workloads {
		outs[i] = &outcome{wl: wl}
		if oracles[wl.dataset] == nil {
			o, err := loadOracle(e.bundles[wl.dataset])
			if err != nil {
				return nil, err
			}
			oracles[wl.dataset] = o
		}
	}
	for round := 0; round < cfg.rounds; round++ {
		for _, out := range outs {
			r, err := runRound(ctx, e, out.wl, cfg.seed, round, cfg.warm, cfg.window, false)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", out.wl.name, round, err)
			}
			oracles[out.wl.dataset].verify(r, cfg.seed)
			out.rounds = append(out.rounds, r)
		}
	}
	for _, out := range outs {
		if cfg.traced {
			r, err := runRound(ctx, e, out.wl, cfg.seed, cfg.rounds, cfg.warm, cfg.window, true)
			if err != nil {
				return nil, fmt.Errorf("%s traced round: %w", out.wl.name, err)
			}
			o := oracles[out.wl.dataset]
			o.verify(r, cfg.seed)
			out.traced = r
			if out.probes, err = runProbes(ctx, r, cfg.seed, o); err != nil {
				return nil, fmt.Errorf("%s: %w", out.wl.name, err)
			}
			if err := writeSpans(e, out); err != nil {
				return nil, err
			}
		}
		out.report(cfg.minGood)
	}
	return outs, nil
}

func writeSpans(e *env, out *outcome) (err error) {
	f, err := os.Create(filepath.Join(e.out, "spans-"+out.wl.name+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	for i := range out.probes.spans {
		if err := enc.Encode(&out.probes.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		seed      = flag.Int64("seed", 1, "workload seed: drives every input row, the draw order and the Zipf stream")
		only      = flag.String("workload", "", "run this workload alone (default: all four, rounds interleaved)")
		seconds   = flag.Int("seconds", 0, "measured seconds per workload, split over 3 rounds (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 1, "1: add the traced round and the layer probes, and report per-layer metrics on the last line; 0: end-to-end only")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and fail if any end-to-end metric moves by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments:", flag.Args())
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	cfg := config{seed: *seed, workloads: workloads, warm: warmUp, rounds: rounds,
		window: time.Duration(*seconds) * time.Second / rounds, traced: *trace != 0, minGood: 200}
	if *only != "" {
		wl, err := workloadByName(*only)
		if err != nil {
			return fail(err)
		}
		cfg.workloads = []workload{wl}
	}

	// A signal cancels ctx; every round unwinds through its fleet's stop, so
	// no child outlives the driver.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	e, err := prepare(ctx, root)
	if err != nil {
		return fail(err)
	}

	if *selfcheck {
		cfg.traced = false
		ok, err := runSelfcheck(ctx, e, sp, cfg)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	outs, err := run(ctx, e, cfg)
	if err != nil {
		return fail(err)
	}
	res, err := printReport(os.Stdout, sp, cfg, outs)
	if err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}
