// Command teamnet-serve runs the batching inference gateway: an HTTP front
// door over a cluster master. Many concurrent clients POST single samples
// (or small batches) to /predict; whatever queues while every dispatch
// worker is busy coalesces into one batch of up to -max-batch rows, the
// gateway drives the collaborative broadcast-gather protocol once per
// batch, and scatters per-row answers back — amortizing every peer round
// trip over the whole batch, while a request that finds a worker idle
// leaves at once. Overload is
// shed at admission (HTTP 429, with a Retry-After derived from the queue
// drain rate) instead of queueing without bound, and per-request deadlines
// turn into 504s rather than stuck connections. With -degraded (the default)
// quarantined or slow experts thin answers instead of failing them: partial
// ensembles come back with degraded: true and quorum metadata, hedged peer
// calls cover transient stragglers, and a brownout controller tightens
// admission when the latency SLO burns (docs/OPERATIONS.md). Repeated
// traffic is shaped before it costs inference: -cache-size/-cache-ttl
// bound a content-addressed response cache (byte-identical inputs answered
// with cached: true, keyed under the bundle's content hash so a model swap
// invalidates everything) and -coalesce folds identical in-flight inputs
// into one ensemble round (singleflight).
//
// Example, in front of two teamnet-node workers:
//
//	teamnet-serve -team team.tnet -local 0 -peers 127.0.0.1:7001 -listen :8090 -admin :8091
//	curl -s localhost:8090/predict -d '{"x": [[0.1, 0.2, ...]], "timeout_ms": 250}'
//
// A process is one master's gateway: a team's (-local and/or -peers), or a
// front's (-masters and/or -bootstrap without either), whose peers are other
// teamnet-serve processes' fabric endpoints (-fabric-listen) and whose every
// request goes to one of them, least-loaded, over a supervised link:
//
//	teamnet-serve -team team.tnet -listen :8092 -masters 127.0.0.1:7100,127.0.0.1:7101
//
// -admin exposes /healthz, /metrics (gateway queue/batch/shed series plus
// the master's cluster series), /traces, and pprof (docs/OPERATIONS.md).
// SIGINT shuts down gracefully: the predict listener stops accepting,
// in-flight requests finish, queued ones fail fast with 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/teamnet/teamnet/internal/admin"
	"github.com/teamnet/teamnet/internal/cli"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teamnet-serve:", err)
		os.Exit(1)
	}
}

// newCutover returns the one way this process changes model, whoever asks —
// a wire push to the fabric endpoint or the -swap-watch poll: the master's
// local model first (weights and label in one store), then the gateway
// re-labels and purges its response cache — so a cache key can never pair an
// old version with new weights. A refused model changes neither.
func newCutover(master *cluster.Master, gw *serve.Gateway) func(cluster.Model) error {
	return func(next cluster.Model) error {
		if err := master.SetLocal(next); err != nil {
			return err
		}
		gw.SetModelVersion(cli.BundleLabel(next.Version))
		return nil
	}
}

func run() error {
	var (
		teamPath = flag.String("team", "team.tnet", "team bundle from teamnet-train")
		local    = flag.Int("local", -1, "expert index to run locally (-1 = coordinator only)")
		peers    = flag.String("peers", "", "comma-separated worker addresses")
		listen   = flag.String("listen", "127.0.0.1:8090", "HTTP address for /predict")

		maxBatch = flag.Int("max-batch", 16, "row budget per coalesced batch")
		queue    = flag.Int("queue", 256, "admission queue size per priority lane (full lane sheds with 429)")
		workers  = flag.Int("workers", 2, "concurrent batch dispatches; requests coalesce only while all of them are busy")
		deadline = flag.Duration("deadline", 2*time.Second, "default per-request deadline when the client sends no timeout_ms (0 = none)")

		timeout = flag.Duration("timeout", 2*time.Second, "per-peer round-trip deadline (0 = none); keep this below -deadline so stalled peers fail as peer faults, not caller aborts")
		retries = flag.Int("retries", 1, "per-request retry budget for transient peer errors")

		cacheSize = flag.Int("cache-size", 4096, "content-addressed response cache entries (0 disables); byte-identical inputs are answered without re-running the ensemble")
		cacheTTL  = flag.Duration("cache-ttl", 5*time.Second, "max age of a cached answer (0 = until eviction or model swap)")
		coalesce  = flag.Bool("coalesce", true, "coalesce identical in-flight inputs into one inference (singleflight)")

		fabricListen  = flag.String("fabric-listen", "", "serve this node's master over the fabric protocol on this address; other gateways route to it, and versioned model pushes hot-swap it without restart")
		fabricID      = flag.Int("fabric-id", 0, "fabric membership/election identity (unique per node)")
		mastersFlag   = flag.String("masters", "", "comma-separated master fabric addresses a front gateway (no -local, no -peers) routes across, least-loaded")
		bootstrap     = flag.String("bootstrap", "", "comma-separated fabric addresses to announce to; on a front gateway, gossip-discovered masters join (and expired ones leave) the routing set")
		announceEvery = flag.Duration("announce-every", 5*time.Second, "membership re-announce and expiry period when -bootstrap is set")
		swapWatch     = flag.Duration("swap-watch", 0, "poll the -team bundle at this period and, when its content changes, swap the local expert's weights and label and re-key the response cache in place, with or without -fabric-listen (0 = off)")

		degraded    = flag.Bool("degraded", true, "answer with partial ensembles (degraded: true + quorum metadata) when experts are quarantined or slow, instead of failing the batch")
		slo         = flag.Duration("slo", 0, "latency SLO target for the brownout controller (0 = -deadline); sustained burn tightens the admission queue")
		hedge       = flag.Bool("hedge", true, "hedge slow peer calls: duplicate a request on the same mux link once past the p95 of the peer's recent round trips, first reply wins; a peer none of whose duplicates won in the last 300 ms gets one trial per 20 unfired expiries and 300 ms")
		retryBudget = flag.Float64("retry-budget", 0.1, "global retry budget as a fraction of request volume, shared across retries and hedges (0 disables the cap)")
		adminAddr   = flag.String("admin", "", "serve the HTTP admin endpoint (/healthz, /metrics, /traces, pprof) on this address, e.g. :8091")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-shutdown budget for in-flight HTTP requests on SIGINT")
	)
	flag.Parse()

	bundle, err := cli.ReadBundle(*teamPath)
	if err != nil {
		return err
	}
	// The master's local model is labelled like the teamnet-node serving the
	// same expert, so the two can finish each other's split tails. The
	// bundle's own label scopes every response-cache key, so serving a
	// different bundle (or cutting over to one later) can never replay
	// answers computed by another model.
	team, model, err := bundle.Load(*local)
	if err != nil {
		return err
	}
	label := bundle.Label // the long-lived closures below keep this, not the file's bytes

	// One master per process: a team's, or a front whose peers are masters.
	staticMasters := cli.SplitList(*mastersFlag)
	bootstraps := cli.SplitList(*bootstrap)
	ownTeam := *local >= 0 || *peers != ""
	front := !ownTeam && (len(staticMasters) > 0 || len(bootstraps) > 0)
	switch {
	case ownTeam && len(staticMasters) > 0:
		return errors.New("-masters makes a front gateway, which serves no team of its own: drop -local/-peers, or serve this team from its own process and list its -fabric-listen address in -masters")
	case front && *fabricListen != "":
		return errors.New("-fabric-listen serves a team's master to other gateways; a front gateway (-masters/-bootstrap without -local or -peers) has none to serve")
	}
	master := cluster.NewMaster(nil, team.Classes)
	if front {
		master = cluster.NewFront(team.Classes)
	}
	defer master.Close()
	if err := master.SetLocal(model); err != nil {
		return err
	}
	master.SetTimeout(*timeout)
	master.SetSupervisor(cluster.SupervisorConfig{MaxRetries: *retries})
	master.SetTracer(trace.New("gateway", 0))
	master.SetHedge(*hedge)
	if *retryBudget > 0 {
		master.SetRetryBudget(cluster.NewRetryBudget(*retryBudget))
	}
	for _, addr := range append(cli.SplitList(*peers), staticMasters...) {
		if err := master.Connect(addr); err != nil {
			return err
		}
	}
	if err := master.Ping(); err != nil {
		// Degraded start: the supervisor keeps probing sick peers while the
		// gateway serves with whoever answers.
		fmt.Printf("warning: %v\n", err)
	}

	sloTarget := *slo
	if sloTarget <= 0 {
		sloTarget = *deadline
	}
	gw := serve.New(master, serve.Config{
		MaxBatch:       *maxBatch,
		QueueSize:      *queue,
		Workers:        *workers,
		DefaultTimeout: *deadline,
		Degraded:       *degraded,
		SLOTarget:      sloTarget,
		CacheSize:      *cacheSize,
		CacheTTL:       *cacheTTL,
		Coalesce:       *coalesce,
	})
	defer gw.Close()
	gw.SetTracer(master.Tracer())
	gw.SetModelVersion(label)

	cutover := newCutover(master, gw)

	// Fabric endpoint: serve this master to other gateways, answer
	// membership announces, and accept versioned model pushes.
	var fabricSrv *cluster.Node
	if *fabricListen != "" {
		fabricSrv = cluster.NewNode(cluster.RoleMaster, master, *fabricID)
		fabricSrv.Cutover = cutover
		bound, err := fabricSrv.Listen(*fabricListen)
		if err != nil {
			return err
		}
		defer fabricSrv.Close()
		fmt.Printf("fabric endpoint on %s (predict/announce/model-push, member id %d)\n", bound, *fabricID)
	}

	// Anti-entropy membership: announce to the bootstrap set every period and
	// age out members that stop announcing. A front keeps its peers in
	// lockstep with the roster's masters: static -masters peers are pinned,
	// discovered ones come and go with the gossip.
	if len(bootstraps) > 0 {
		roster := cluster.NewRoster()
		selfMember := func() cluster.Member {
			if fabricSrv != nil {
				return fabricSrv.Member()
			}
			return cluster.Member{Role: cluster.RoleGateway, ID: *fabricID, Version: gw.ModelVersion()}
		}
		announceStop := make(chan struct{})
		announceDone := make(chan struct{})
		go func() {
			defer close(announceDone)
			tick := time.NewTicker(*announceEvery)
			defer tick.Stop()
			for {
				self := selfMember()
				for _, addr := range bootstraps {
					if _, err := cluster.Announce(addr, self, roster, *announceEvery); err != nil {
						fmt.Printf("warning: announce %s: %v\n", addr, err)
					}
				}
				roster.Expire(3 * *announceEvery)
				if front {
					syncMasters(master, staticMasters, roster.Masters())
				}
				select {
				case <-tick.C:
				case <-announceStop:
					return
				}
			}
		}()
		defer func() { close(announceStop); <-announceDone }()
	}

	// Co-located hot-swap: poll the bundle file and, when its content hash
	// changes, cut the local expert and the gateway over to it — the
	// restartless deploy path for single-node setups, fabric endpoint or not.
	if *swapWatch > 0 {
		watchStop := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			tick := time.NewTicker(*swapWatch)
			defer tick.Stop()
			for last := label; ; {
				select {
				case <-tick.C:
				case <-watchStop:
					return
				}
				fresh, err := cli.ReadBundle(*teamPath)
				if err != nil || fresh.Label == last {
					continue
				}
				// One verdict per file content: a bundle that fails to load or
				// is refused is not retried until the file changes again.
				last = fresh.Label
				_, next, err := fresh.Load(*local)
				if err == nil {
					err = cutover(next)
				}
				if err != nil {
					fmt.Printf("warning: swap-watch: reload %s: %v\n", *teamPath, err)
					continue
				}
				fmt.Printf("hot-swapped model %s from %s\n", last, *teamPath)
			}
		}()
		defer func() { close(watchStop); <-watchDone }()
	}

	var adm *admin.Server
	if *adminAddr != "" {
		adm = admin.New()
		adm.HealthFunc(func() (bool, any) {
			healths := master.Health()
			return healthy(front, healths), map[string]any{
				"role":  "gateway",
				"peers": healths,
			}
		})
		adm.Add(gw.Metrics(), master.Metrics())
		adm.TracerFunc(master.Tracer)
		bound, err := adm.Listen(*adminAddr)
		if err != nil {
			return err
		}
		fmt.Printf("admin endpoint on http://%s (/healthz /metrics /traces /debug/pprof/)\n", bound)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	srv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("gateway on http://%s/predict (max batch %d, %d workers, %d peer(s), local expert: %v, cache %d entries/%v, coalesce %v, model %s)\n",
		ln.Addr(), *maxBatch, *workers, master.Peers(), *local >= 0, *cacheSize, *cacheTTL, *coalesce, label)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-sig:
	}
	fmt.Println("shutting down")

	// Drain order matters: stop accepting and finish in-flight HTTP first
	// (their Predict calls need a live gateway), then stop the gateway, then
	// the admin endpoint — leaving /metrics scrapable until the very end.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	var firstErr error
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		firstErr = err
	}
	gw.Close()
	if served := gw.Metrics().String(); served != "" {
		fmt.Printf("gateway counters:\n%s", served)
	}
	if adm != nil {
		if err := adm.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// syncMasters makes a front's peers the pinned static masters plus the
// roster's: it connects a master that joined — a failed dial is retried on
// the next announce round — and disconnects one that left.
func syncMasters(front *cluster.Master, pinned, roster []string) {
	want := make(map[string]bool)
	for _, list := range [][]string{pinned, roster} {
		for _, addr := range list {
			want[addr] = true
		}
	}
	for _, h := range front.Health() {
		if !want[h.Addr] {
			front.Disconnect(h.Addr)
		}
		delete(want, h.Addr)
	}
	for addr := range want {
		if err := front.Connect(addr); err != nil {
			fmt.Printf("warning: %v\n", err)
		}
	}
}

// healthy is a gateway's /healthz verdict on its master's peers: a team is
// healthy with every peer in rotation, a front while one master is, since
// failover serves every request from it.
func healthy(front bool, peers []cluster.PeerHealth) bool {
	serving := 0
	for _, h := range peers {
		if h.State == cluster.PeerHealthy || h.State == cluster.PeerSuspect {
			serving++
		}
	}
	if front {
		return serving > 0
	}
	return serving == len(peers)
}
