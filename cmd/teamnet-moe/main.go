// Command teamnet-moe operates the SG-MoE baseline end-to-end, in parity
// with the teamnet-train/node/infer trio: train a sparsely-gated mixture of
// experts, serve one expert as a node (the SG-MoE-G deployment), or run the
// gate-then-dispatch master against a set of expert nodes.
//
//	teamnet-moe -mode train -dataset digits -k 2 -model moe.tnet
//	teamnet-moe -mode node  -model moe.tnet -expert 1 -listen :7101
//	teamnet-moe -mode infer -model moe.tnet -peers :7100,:7101 -queries 100
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/teamnet/teamnet/internal/admin"
	"github.com/teamnet/teamnet/internal/cli"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teamnet-moe:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mode      = flag.String("mode", "train", "train, node or infer")
		dsName    = flag.String("dataset", "digits", "dataset: digits or objects")
		n         = flag.Int("n", 2000, "dataset size (train mode)")
		size      = flag.Int("size", 0, "image edge length (0 = dataset default)")
		k         = flag.Int("k", 2, "number of experts (train mode)")
		topK      = flag.Int("topk", 2, "experts kept per sample")
		epochs    = flag.Int("epochs", 15, "training epochs")
		batch     = flag.Int("batch", 50, "mini-batch size")
		lr        = flag.Float64("lr", 0.002, "learning rate")
		seed      = flag.Int64("seed", 42, "random seed")
		modelPath = flag.String("model", "moe.tnet", "model bundle path")
		expert    = flag.Int("expert", 0, "which expert to serve, also the node's election id (node mode)")
		listen    = flag.String("listen", "127.0.0.1:7101", "listen address (node mode)")
		peers     = flag.String("peers", "", "expert node addresses in expert order (infer mode)")
		queries   = flag.Int("queries", 100, "inference count (infer mode)")
		traceOn   = flag.Bool("trace", false, "record per-query spans and print each query's span tree (infer mode)")
		adminAddr = flag.String("admin", "", "serve the HTTP admin endpoint (/healthz, /metrics, /traces, pprof) on this address")
	)
	flag.Parse()

	switch *mode {
	case "train":
		return trainMode(*dsName, *n, *size, *k, *topK, *epochs, *batch, *lr, *seed, *modelPath)
	case "node":
		return nodeMode(*modelPath, *expert, *listen, *adminAddr)
	case "infer":
		return inferMode(*modelPath, *dsName, *queries, *size, *seed, cli.SplitList(*peers), *traceOn, *adminAddr)
	default:
		return fmt.Errorf("unknown mode %q (train, node or infer)", *mode)
	}
}

func trainMode(dsName string, n, size, k, topK, epochs, batch int, lr float64, seed int64, out string) error {
	ds, err := cli.BuildDataset(dsName, n, size, seed)
	if err != nil {
		return err
	}
	spec, err := cli.ExpertSpec(ds, k)
	if err != nil {
		return err
	}
	train, test := ds.Split(0.85, tensor.NewRNG(seed+1))
	model, err := moe.Train(moe.Config{
		K: k, TopK: topK, ExpertSpec: spec,
		Epochs: epochs, BatchSize: batch, LR: lr, Seed: seed,
	}, train)
	if err != nil {
		return err
	}
	fmt.Printf("SG-MoE accuracy: %.2f%%  gate usage entropy: %.3f nats\n",
		100*model.Accuracy(test.X, test.Y), model.AssignmentEntropy(test.X))
	f, err := os.Create(out)
	if err != nil {
		return fmt.Errorf("create %s: %w", out, err)
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d experts, top-%d gating)\n", out, model.K(), model.Cfg.TopK)
	return nil
}

func loadModel(path string) (*moe.SGMoE, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open bundle: %w", err)
	}
	defer f.Close()
	return moe.Load(f)
}

func nodeMode(path string, expert int, listen, adminAddr string) error {
	model, err := loadModel(path)
	if err != nil {
		return err
	}
	if expert < 0 || expert >= model.K() {
		return fmt.Errorf("expert %d out of range [0, %d)", expert, model.K())
	}
	srv := cluster.NewWorker(model.Experts[expert], expert)
	addr, err := srv.Listen(listen)
	if err != nil {
		return err
	}
	fmt.Printf("serving SG-MoE expert %d/%d on %s\n", expert, model.K(), addr)
	if adminAddr != "" {
		srv.SetTracer(trace.New(addr, 0))
		adm := admin.New()
		adm.HealthFunc(func() (bool, any) {
			return true, map[string]any{
				"role":     "moe-expert",
				"addr":     addr,
				"requests": srv.Metrics().Counter("requests").Value(),
			}
		})
		adm.Add(srv.Metrics())
		adm.TracerFunc(srv.Tracer)
		bound, err := adm.Listen(adminAddr)
		if err != nil {
			srv.Close()
			return err
		}
		defer adm.Close()
		fmt.Printf("admin endpoint on http://%s (/healthz /metrics /traces /debug/pprof/)\n", bound)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return srv.Close()
}

func inferMode(path, dsName string, queries, size int, seed int64, peers []string, traceOn bool, adminAddr string) error {
	model, err := loadModel(path)
	if err != nil {
		return err
	}
	master, err := cluster.NewMoEMaster(model, peers)
	if err != nil {
		return err
	}
	defer master.Close()
	if traceOn || adminAddr != "" {
		master.SetTracer(trace.New("moe-master", 0))
	}
	if adminAddr != "" {
		adm := admin.New()
		adm.HealthFunc(func() (bool, any) {
			return true, map[string]any{"role": "moe-master", "peers": len(peers)}
		})
		adm.Add(master.Metrics())
		adm.TracerFunc(master.Tracer)
		bound, err := adm.Listen(adminAddr)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Printf("admin endpoint on http://%s (/healthz /metrics /traces /debug/pprof/)\n", bound)
	}
	ds, err := cli.BuildDataset(dsName, queries, size, seed+7)
	if err != nil {
		return err
	}
	var lat metrics.Summary
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		x := ds.X.SelectRows([]int{i})
		start := time.Now()
		probs, err := master.Infer(x)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		lat.Observe(time.Since(start))
		if traceOn {
			tr := master.Tracer() // installed above whenever -trace is set
			if ids := tr.TraceIDs(1); len(ids) == 1 {
				fmt.Printf("query %d trace %016x:\n%s", i, ids[0], tr.Tree(ids[0]))
			}
		}
		if probs.Row(0).ArgMax() == ds.Y[i] {
			correct++
		}
	}
	fmt.Printf("accuracy: %.2f%% over %d queries\n", 100*float64(correct)/float64(ds.Len()), ds.Len())
	fmt.Printf("latency: %s\n", lat.String())
	return nil
}
