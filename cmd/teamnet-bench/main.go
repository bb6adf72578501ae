// Command teamnet-bench regenerates the paper's evaluation artifacts: every
// table and figure of Section VI plus the ablation studies, using the
// methodology documented in DESIGN.md (real training on the synthetic
// datasets for accuracy, the edgesim cost model over real FLOP and byte
// counts for latency and resources).
//
// It also hosts the serving-stack benchmarks (docs/BENCHMARKS.md):
// -forward reads every zoo model's frozen inference Snapshot and its
// training step as shares of the machine's measured peak (DESIGN.md §10);
// -fleet scales gateway/master pairs across the serving fabric while one
// chaos drill stalls, resets and heals worker links and hot-swaps the model
// mid-run (§12); -split sweeps the partial-offload planner across edgesim
// link profiles (§13); and -check
// re-runs the committed fleet, split and forward configurations as a
// regression gate. End-to-end serving speed is measured by the repository
// benchmark (BENCHMARK.json, go run ./benchmark), not here.
//
// Examples:
//
//	teamnet-bench -list
//	teamnet-bench -experiment table1a
//	teamnet-bench -all -scale full > results.txt
//	teamnet-bench -split -out BENCH_split.json
//	teamnet-bench -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/teamnet/teamnet/internal/bench"
	"github.com/teamnet/teamnet/internal/cli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teamnet-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "", "experiment id to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment, paper order")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		scaleName  = flag.String("scale", "quick", "training scale: quick or full")
		format     = flag.String("format", "text", "output format: text or csv")
		plotsDir   = flag.String("plots", "", "also write SVG figures into this directory")
		seed       = flag.Int64("seed", 42, "random seed")

		netDelay = flag.Duration("netdelay", 2*time.Millisecond, "fleet: one-way link delay (edge RTT model; negative = none injected)")
		out      = flag.String("out", "", "every serving-stack mode (-forward, -fleet, -split, -check): also write the report as JSON to this file")
		reqDl    = flag.Duration("req-deadline", 300*time.Millisecond, "fleet: per-request deadline")
		maxBatch = flag.Int("max-batch", 16, "fleet: gateway row budget per coalesced batch")

		forward = flag.Bool("forward", false, "run the batch forward-pass benchmark: every zoo model's frozen inference snapshot and training step as shares of the machine's measured multiply/add peak")
		fwBatch = flag.Int("forward-batch", 16, "forward: rows per forward pass")
		fwDur   = flag.Duration("forward-duration", 300*time.Millisecond, "forward: measured window per model per engine (snapshot, training step)")

		fleet         = flag.Bool("fleet", false, "run the fleet drill: gateway/master pairs scaled 1→2→4 under per-pair Poisson load while a worker link is stalled, a second reset, all healed, and the model hot-swapped over the wire")
		fleetQPS      = flag.Int("fleet-qps", 400, "fleet: offered Poisson arrival rate per gateway/master pair, requests/second")
		fleetDuration = flag.Duration("fleet-duration", 8*time.Second, "fleet: measured window per scale")
		fleetScales   = flag.String("fleet-scales", "1,2,4", "fleet: comma-separated pair counts, ascending")
		fleetWorkers  = flag.Int("fleet-workers", 2, "fleet: workers per master (at least 2), each behind its own chaos proxy")

		splitBench = flag.Bool("split", false, "run the partial-offload planning sweep: the split planner across edgesim link profiles")
		splitBatch = flag.Int("split-batch", 1, "split: rows per query")

		check    = flag.Bool("check", false, "re-run benchmarks with committed configs and fail on >tolerance regression")
		checkFw  = flag.String("check-forward", "BENCH_forward.json", "check: committed forward artifact (\"\" skips)")
		checkFl  = flag.String("check-fleet", "BENCH_fleet.json", "check: committed fleet artifact (\"\" skips)")
		checkSp  = flag.String("check-split", "BENCH_split.json", "check: committed split-planning artifact (\"\" skips)")
		checkTol = flag.Float64("check-tolerance", bench.CheckTolerance, "check: allowed relative regression")
	)
	flag.Parse()

	// emit prints a finished report and records it as the -out artifact;
	// the benchmarks with an acceptance bar add their exit-code gate after.
	emit := func(report fmt.Stringer, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(report)
		return writeReport(report, *out)
	}

	if *forward {
		return emit(bench.RunForwardBench(bench.ForwardBenchConfig{
			Batch:    *fwBatch,
			Duration: *fwDur,
			Seed:     *seed,
		}))
	}

	if *fleet {
		var scales []int
		for _, s := range cli.SplitList(*fleetScales) {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -fleet-scales entry %q", s)
			}
			scales = append(scales, n)
		}
		report, err := bench.RunFleetBench(bench.FleetConfig{
			PairQPS:        *fleetQPS,
			Duration:       *fleetDuration,
			Deadline:       *reqDl,
			Scales:         scales,
			WorkersPerPair: *fleetWorkers,
			NetDelay:       *netDelay,
			MaxBatch:       *maxBatch,
			Seed:           *seed,
		})
		if err := emit(report, err); err != nil {
			return err
		}
		return fleetGate(report)
	}

	if *splitBench {
		report, err := bench.RunSplitBench(bench.SplitBenchConfig{Batch: *splitBatch})
		if err := emit(report, err); err != nil {
			return err
		}
		if !report.Pass {
			return fmt.Errorf("split: auto planner chose %d distinct split points or lost to an endpoint past the %.0f%% floor",
				report.DistinctAutoSplits, bench.SplitGateFloor*100)
		}
		return nil
	}

	if *check {
		report, err := bench.RunBenchCheck(bench.CheckConfig{
			ForwardPath: *checkFw,
			FleetPath:   *checkFl,
			SplitPath:   *checkSp,
			Tolerance:   *checkTol,
		})
		if err := emit(report, err); err != nil {
			return err
		}
		if !report.Pass {
			return fmt.Errorf("benchmark regression past %.0f%% tolerance", report.Tolerance*100)
		}
		return nil
	}

	if *list {
		for _, id := range bench.IDs() {
			fmt.Printf("%-22s %s\n", id, bench.Describe(id))
		}
		return nil
	}

	scale := bench.Quick
	switch *scaleName {
	case "quick":
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (quick or full)", *scaleName)
	}
	lab := bench.NewLab(bench.Options{Scale: scale, Seed: *seed})

	ids := bench.IDs()
	if !*all {
		if *experiment == "" {
			return fmt.Errorf("pass -experiment <id>, -all, or -list")
		}
		ids = []string{*experiment}
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (text or csv)", *format)
	}
	for _, id := range ids {
		start := time.Now()
		res, err := bench.Run(lab, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *plotsDir != "" {
			if err := writePlots(*plotsDir, id, res); err != nil {
				return err
			}
		}
		if *format == "csv" {
			c, ok := res.(bench.CSVer)
			if !ok {
				return fmt.Errorf("%s: result has no CSV form", id)
			}
			fmt.Printf("# %s\n%s\n", id, c.CSV())
			continue
		}
		// The wall time goes to stderr, so stdout regenerates byte for byte
		// (make repro-check).
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, time.Since(start).Round(time.Millisecond))
		fmt.Printf("### %s (%s)\n%s\n", id, bench.Describe(id), res)
	}
	return nil
}

// fleetGate fails the process when the fabric misses its acceptance bar:
// under 3x aggregate goodput at the largest scale, or any exact verdict of
// the regression gate broken at any scale — a hard-failed request, a stale
// cache entry or split versions after the hot-swap, an interval with zero
// goodput, a tail that never recovers after the heal.
func fleetGate(report *bench.FleetReport) error {
	if len(report.Scales) > 1 && report.ScalingX < 3 {
		return fmt.Errorf("fleet: %.2fx aggregate goodput scaling, want >= 3x", report.ScalingX)
	}
	for _, c := range bench.EvaluateFleetCheck(report, report, 0) {
		if !c.Pass {
			return fmt.Errorf("fleet: %s is %g, want %g", c.Name, c.Current, c.Limit)
		}
	}
	return nil
}

// writeReport records a benchmark report as a JSON artifact (out == ""
// skips the file).
func writeReport(report any, out string) error {
	if out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", out, err)
	}
	return nil
}

// writePlots renders a result's SVG figures into dir.
func writePlots(dir, id string, res bench.Result) error {
	p, ok := res.(bench.Plotter)
	if !ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create plots dir: %w", err)
	}
	for suffix, svg := range p.Plots() {
		name := id
		if suffix != "" {
			name += "-" + suffix
		}
		path := filepath.Join(dir, name+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}
