// Command teamnet-node serves one expert of a trained team over raw TCP —
// the worker role of the paper's Figure 1(d). Run one node per edge device
// (or per port, locally), then point teamnet-infer at them.
//
// Example:
//
//	teamnet-node -team team.tnet -expert 1 -listen :7001 -id 1
//
// For resilience drills, -chaos fronts the worker with a fault-injection
// proxy so the public address misbehaves like real edge WiFi:
//
//	teamnet-node -team team.tnet -expert 1 -listen :7001 -chaos reset:0.3
//	teamnet-node -listen :7001 -chaos "latency:50ms,stall:0.1"
//
// -admin exposes the observability endpoint (docs/OPERATIONS.md):
//
//	teamnet-node -team team.tnet -expert 1 -listen :7001 -admin :8081
//	curl -s localhost:8081/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/teamnet/teamnet/internal/admin"
	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/cli"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teamnet-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		teamPath  = flag.String("team", "team.tnet", "team bundle from teamnet-train")
		expert    = flag.Int("expert", 0, "which expert of the bundle to serve")
		listen    = flag.String("listen", "127.0.0.1:7001", "listen address")
		id        = flag.Int("id", 0, "election identity (unique per node; higher wins)")
		chaosSpec = flag.String("chaos", "", "serve through a fault-injection proxy: comma-separated mode:arg specs (latency:50ms, stall:0.3, reset:0.3, truncate:0.1, corrupt:0.05, dropnth:3)")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the chaos fault die")
		adminAddr = flag.String("admin", "", "serve the HTTP admin endpoint (/healthz, /metrics, /traces, pprof) on this address, e.g. :8081")

		bootstrap     = flag.String("bootstrap", "", "comma-separated fabric addresses to announce this worker to (membership gossip)")
		announceEvery = flag.Duration("announce-every", 5*time.Second, "membership re-announce period when -bootstrap is set")
	)
	flag.Parse()
	plan, err := chaos.ParsePlan(*chaosSpec)
	if err != nil {
		return err
	}

	if *expert < 0 {
		return fmt.Errorf("expert %d out of range: a node serves one expert of the bundle", *expert)
	}
	bundle, err := cli.ReadBundle(*teamPath)
	if err != nil {
		return err
	}
	// The model arrives compiled into a frozen inference snapshot, so every
	// connection's requests run concurrently on one copy of the weights, and
	// labelled with the bundle's content hash scoped by expert index
	// (cli.Bundle.Load says why) until a versioned push hot-swaps it
	// (DESIGN.md §12).
	team, model, err := bundle.Load(*expert)
	if err != nil {
		return err
	}
	worker := cluster.NewWorkerModel(model, *id)

	var proxy *chaos.Proxy
	addr := *listen
	if len(plan) > 0 {
		// The worker binds an ephemeral loopback port; the chaos proxy owns
		// the public address and injects faults on everything crossing it.
		workerAddr, err := worker.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		proxy = chaos.New(workerAddr, plan...)
		proxy.Reseed(*chaosSeed)
		addr, err = proxy.Listen(*listen)
		if err != nil {
			worker.Close()
			return err
		}
		fmt.Printf("chaos proxy on %s → %s injecting %s\n", addr, workerAddr, *chaosSpec)
	} else {
		addr, err = worker.Listen(*listen)
		if err != nil {
			return err
		}
	}
	fmt.Printf("serving expert %d/%d (%s) on %s, election id %d, model %s\n",
		*expert, team.K(), team.Spec.Label(), addr, *id, model.Version)

	// Membership: re-announce to the bootstrap set so masters and gateways
	// see this worker join (and age it out of their rosters when it stops).
	var announceStop, announceDone chan struct{}
	if *bootstrap != "" {
		addrs := cli.SplitList(*bootstrap)
		announceStop, announceDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(announceDone)
			tick := time.NewTicker(*announceEvery)
			defer tick.Stop()
			for {
				for _, a := range addrs {
					if _, err := cluster.Announce(a, worker.Member(), worker.Roster(), *announceEvery); err != nil {
						fmt.Printf("warning: announce %s: %v\n", a, err)
					}
				}
				select {
				case <-tick.C:
				case <-announceStop:
					return
				}
			}
		}()
		fmt.Printf("announcing to %v every %v\n", addrs, *announceEvery)
	}

	var adm *admin.Server
	if *adminAddr != "" {
		// With the endpoint up, keep a span ring so /traces shows the
		// worker-side "worker.predict" spans of traced queries.
		worker.SetTracer(trace.New(addr, 0))
		adm = admin.New()
		adm.HealthFunc(func() (bool, any) {
			return true, map[string]any{
				"role":     "worker",
				"addr":     addr,
				"requests": worker.Metrics().Counter("requests").Value(),
			}
		})
		adm.Add(worker.Metrics())
		if proxy != nil {
			adm.Add(proxy.Metrics())
		}
		adm.TracerFunc(worker.Tracer)
		bound, err := adm.Listen(*adminAddr)
		if err != nil {
			worker.Close()
			return err
		}
		fmt.Printf("admin endpoint on http://%s (/healthz /metrics /traces /debug/pprof/)\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if announceStop != nil {
		// Joined before the worker closes: an announce in flight reads it.
		close(announceStop)
		<-announceDone
	}
	if adm != nil {
		// Graceful: a scrape racing the shutdown still gets its response.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		adm.Shutdown(ctx)
		cancel()
	}
	if proxy != nil {
		fmt.Printf("chaos injections:\n%s", proxy.Metrics())
	}
	if served := worker.Metrics().String(); served != "" {
		fmt.Printf("worker counters:\n%s", served)
	}
	var firstErr error
	if proxy != nil {
		firstErr = proxy.Close()
	}
	if err := worker.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
