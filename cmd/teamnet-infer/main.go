// Command teamnet-infer is the master role of Figure 1(d): it connects to
// teamnet-node workers, optionally serves one expert itself, and runs
// collaborative inference on freshly generated test data, reporting
// accuracy and the live round-trip latency distribution.
//
// Example (against two local nodes serving experts 1 and 2 of a K=2 team,
// with the master holding expert 0... for K=2 simply):
//
//	teamnet-infer -team team.tnet -local 0 -peers 127.0.0.1:7001 -dataset digits -queries 200
//
// It can also run the bully leader election against the peer set:
//
//	teamnet-infer -elect -id 9 -peers 127.0.0.1:7001,127.0.0.1:7002
//
// -split turns on partial offload (DESIGN.md §13): the local expert runs
// the head of the network, the intermediate activation ships to a peer for
// the tail. "auto" lets the online planner pick the split point per query;
// an integer pins it. The planner's live candidate table is served at
// /splitplan when -admin is set.
//
// -trace prints a span tree per query — the paper's compute vs. transfer
// split, observed live — and -admin serves /healthz, /metrics, /traces,
// and pprof over HTTP while the run lasts (docs/OPERATIONS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/teamnet/teamnet/internal/admin"
	"github.com/teamnet/teamnet/internal/cli"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "teamnet-infer:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and its report's writer.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("teamnet-infer", flag.ExitOnError)
	var (
		teamPath = fs.String("team", "team.tnet", "team bundle from teamnet-train")
		local    = fs.Int("local", -1, "expert index to run locally (-1 = coordinator only)")
		peers    = fs.String("peers", "", "comma-separated worker addresses")
		dsName   = fs.String("dataset", "digits", "dataset: digits or objects")
		size     = fs.Int("size", 0, "image edge length (0 = dataset default)")
		queries  = fs.Int("queries", 100, "number of single-sample inferences")
		seed     = fs.Int64("seed", 99, "seed for the query stream")
		elect    = fs.Bool("elect", false, "run leader election and exit")
		id       = fs.Int("id", 0, "this node's election identity")

		splitMode  = fs.String("split", "off", "partial offload: off, auto (planner-chosen split point), or a fixed layer index")
		bestEffort = fs.Bool("best-effort", false, "route around failed/quarantined peers instead of failing the query")
		timeout    = fs.Duration("timeout", 2*time.Second, "per-peer round-trip deadline (0 = none)")
		retries    = fs.Int("retries", 1, "per-request retry budget for transient peer errors")
		health     = fs.Bool("health", true, "print the per-peer supervision report after the run")
		traceOn    = fs.Bool("trace", false, "record per-query spans and print each query's span tree")
		adminAddr  = fs.String("admin", "", "serve the HTTP admin endpoint (/healthz, /metrics, /traces, pprof) on this address, e.g. :8080")
	)
	fs.Parse(args)

	// Every query of the run is one Request under this policy.
	var policy cluster.Policy
	if *bestEffort {
		policy.Gather = cluster.BestEffort
	}
	switch *splitMode {
	case "off":
	case "auto":
		policy.Split = cluster.SplitAuto
	default:
		n, err := strconv.Atoi(*splitMode)
		if err != nil || n < 0 {
			return fmt.Errorf("bad -split %q (off, auto, or a layer index)", *splitMode)
		}
		policy.Split = cluster.SplitAt(n)
	}
	splitOn := policy.Split != cluster.SplitOff

	peerAddrs := cli.SplitList(*peers)
	if *elect {
		isLeader, leaderID, err := cluster.ElectLeader(*id, peerAddrs)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "election: leader id %d (this node leads: %v)\n", leaderID, isLeader)
		return nil
	}

	bundle, err := cli.ReadBundle(*teamPath)
	if err != nil {
		return err
	}
	// The local model carries the same expert-scoped label teamnet-node
	// serves under: split requests pin on label equality, so the split tail
	// only runs on a peer serving the *same expert* (a replica); a peer
	// serving a different expert of the team mismatches and the query
	// degrades to whole-query offload instead of finishing the head on the
	// wrong model's tail.
	team, model, err := bundle.Load(*local)
	if err != nil {
		return err
	}
	master := cluster.NewMaster(nil, team.Classes)
	defer master.Close()
	if err := master.SetLocal(model); err != nil {
		return err
	}
	master.SetTimeout(*timeout)
	master.SetSupervisor(cluster.SupervisorConfig{MaxRetries: *retries})
	if splitOn {
		if model.Snapshot == nil {
			return fmt.Errorf("-split needs -local: the head of the network runs on the local expert")
		}
		if policy.Split == cluster.SplitAuto {
			if err := master.EnableSplit(2 * time.Second); err != nil {
				return err
			}
		}
	}
	if *traceOn || *adminAddr != "" {
		master.SetTracer(trace.New("master", 0))
	}
	if *adminAddr != "" {
		adm := admin.New()
		adm.HealthFunc(func() (bool, any) {
			healths := master.Health()
			ok := true
			for _, h := range healths {
				// Suspect peers are still routed; only quarantined
				// (circuit-open) peers degrade the endpoint.
				if h.State == cluster.PeerOpen || h.State == cluster.PeerHalfOpen {
					ok = false
				}
			}
			return ok, healths
		})
		adm.Add(master.Metrics())
		adm.TracerFunc(master.Tracer)
		// Live planner candidate table (JSON null until EnableSplit has a
		// planner and a profile to report).
		adm.JSONFunc("/splitplan", func() any { return master.SplitPlanReport(1) })
		bound, err := adm.Listen(*adminAddr)
		if err != nil {
			return err
		}
		// Graceful on exit (including the SIGINT path below): an in-flight
		// scrape finishes instead of seeing a reset connection.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			adm.Shutdown(ctx)
			cancel()
		}()
		fmt.Fprintf(stdout, "admin endpoint on http://%s (/healthz /metrics /traces /splitplan /debug/pprof/)\n", bound)
	}
	for _, addr := range peerAddrs {
		if err := master.Connect(addr); err != nil {
			return err
		}
	}
	if err := master.Ping(); err != nil {
		if !*bestEffort {
			return err
		}
		// Degraded start is acceptable in best-effort mode; the supervisor
		// will keep probing the sick peers.
		fmt.Fprintf(stdout, "warning: %v\n", err)
	}
	fmt.Fprintf(stdout, "connected to %d peer(s); local expert: %v\n", master.Peers(), *local >= 0)

	ds, err := cli.BuildDataset(*dsName, *queries, *size, *seed)
	if err != nil {
		return err
	}

	// SIGINT cancels the query stream cleanly: the in-flight query aborts
	// via its context, then the deferred admin Shutdown and master Close
	// run instead of the process dying mid-connection.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var lat metrics.Summary
	winnerCount := make(map[int]int)
	liveCount := make(map[int]int)        // participating-node count → queries
	splitCount := make(map[int]int)       // chosen split point → queries
	fallbackCount := make(map[string]int) // split fallback reason → queries
	allProbs := tensor.New(ds.Len(), ds.Classes)
	for i := 0; i < ds.Len(); i++ {
		x := ds.X.SelectRows([]int{i})
		start := time.Now()
		rep, err := master.Do(ctx, cluster.Request{X: x, Policy: policy})
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted at query %d", i)
			}
			return fmt.Errorf("query %d: %w", i, err)
		}
		lat.Observe(time.Since(start))
		if *traceOn {
			if tr := master.Tracer(); tr != nil {
				if ids := tr.TraceIDs(1); len(ids) == 1 {
					fmt.Fprintf(stdout, "query %d trace %016x:\n%s", i, ids[0], tr.Tree(ids[0]))
				}
			}
		}
		copy(allProbs.RowSlice(i), rep.Probs.RowSlice(0))
		if splitOn {
			splitCount[rep.Split]++
			if rep.Fallback != "" {
				fallbackCount[rep.Fallback]++
			}
		} else {
			winnerCount[rep.Winners[0]]++
			liveCount[rep.Live]++
		}
	}
	eval, err := core.Evaluate(allProbs, ds.Y, ds.ClassNames)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, eval)
	fmt.Fprintf(stdout, "latency: %s\n", lat.String())
	if splitOn {
		fmt.Fprintf(stdout, "split point histogram: %v\n", splitCount)
		if len(fallbackCount) > 0 {
			fmt.Fprintf(stdout, "split fallback histogram: %v\n", fallbackCount)
		}
	} else {
		fmt.Fprintf(stdout, "winning node histogram: %v\n", winnerCount)
	}
	if *bestEffort && !splitOn {
		fmt.Fprintf(stdout, "live node histogram: %v\n", liveCount)
	}
	if *health {
		fmt.Fprintf(stdout, "peer health:\n%s", master.HealthReport())
	}
	return nil
}
