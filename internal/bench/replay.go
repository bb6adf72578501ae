package bench

import (
	"errors"
	"fmt"
	"sync"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/moe"
	"github.com/teamnet/teamnet/internal/mpi"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// Every distributed cell of Tables I and II prices what the code sends.
// Each baseline runtime (internal/mpi's schemes, cluster's MoEMPIMaster and
// MoEMPIWorker) runs one row over an in-process world, every rank logging
// the frames it writes and reads and the compute it declares (mpi.Event);
// TeamNet's log is the shape of Master.gather over the codec's own frame
// sizes (teamNetRun). replay then prices those logs with edgesim's device,
// link and transport arithmetic.

// run is one recorded inference of a distributed runtime: every rank's log,
// and the model and peak activation bytes of the reported device.
type run struct {
	logs       [][]mpi.Event
	modelBytes int64
	actBytes   int64
}

// cost prices the run on dev over link under transport tr. gRPC wraps every
// frame in its share of grpcEnvelopeBytes: a call is one request frame and
// one reply frame, so each carries half the call's envelope.
func (r run) cost(dev edgesim.Device, link edgesim.Link, tr edgesim.Transport, gpu bool) Cost {
	envelope := 0
	if tr.Name == "grpc" {
		envelope = grpcEnvelopeBytes / 2
	}
	compute, total := replay(dev, edgesim.Net{Link: link, Transport: tr}, gpu, envelope, r.logs)
	return Cost{
		ComputeSec: compute,
		CommSec:    total - compute,
		ModelBytes: r.modelBytes,
		ActBytes:   r.actBytes,
		BusyComm:   tr.BusyWait,
	}
}

// replay prices one run's logs and returns its critical path: the latest
// rank clock (total) and the compute on the path that set it. Every rank
// keeps a clock:
//   - Work advances it by dev.ComputeTime of the FLOPs;
//   - Send advances it by PerMessageSec, one marshalling per frame written,
//     then puts the frame on the one shared medium: the frame starts once
//     written and the medium is idle, pays ContentionSec first if it found
//     the medium busy, holds it for TransferSec of its bytes plus envelope,
//     and arrives LatencySec after it started plus that transfer;
//   - Recv waits for its matching Send (the nth frame from that peer) and
//     takes the path through the sender if the frame arrives later.
//
// A lone frame therefore prices to exactly Net.Unicast, and k−1 frames
// written at once by k−1 ranks to one receiver to Net.Gather. Frames take
// the medium in the order their senders reach them, earliest clock first.
// Every receive of a finished run returned a frame, so a receive with no
// matching send is a malformed log and panics.
func replay(dev edgesim.Device, n edgesim.Net, gpu bool, envelope int, logs [][]mpi.Event) (compute, total float64) {
	type frame struct{ at, compute float64 } // arrival, and the sender's path compute
	type clock struct {
		at, compute float64
		next        int // index of the rank's next event
	}
	ranks := make([]clock, len(logs))
	inflight := make(map[[2]int][]frame) // (from, to) → frames not yet read
	medium := 0.0                        // when the shared medium falls idle
	for {
		r := -1
		for i, c := range ranks {
			if c.next == len(logs[i]) {
				continue
			}
			if e := logs[i][c.next]; e.Op == mpi.OpRecv && len(inflight[[2]int{e.Peer, i}]) == 0 {
				continue
			}
			if r < 0 || c.at < ranks[r].at {
				r = i
			}
		}
		if r < 0 {
			break
		}
		c := &ranks[r]
		e := logs[r][c.next]
		c.next++
		switch e.Op {
		case mpi.OpWork:
			sec := dev.ComputeTime(e.FLOPs, gpu)
			c.at += sec
			c.compute += sec
		case mpi.OpSend:
			c.at += n.Transport.PerMessageSec
			start := max(c.at, medium)
			if c.at < medium {
				start += n.Link.ContentionSec
			}
			transfer := n.Link.TransferSec(e.Bytes + envelope)
			medium = start + transfer
			key := [2]int{r, e.Peer}
			inflight[key] = append(inflight[key], frame{at: start + n.Link.LatencySec + transfer, compute: c.compute})
		case mpi.OpRecv:
			key := [2]int{e.Peer, r}
			f := inflight[key][0]
			inflight[key] = inflight[key][1:]
			if f.at > c.at {
				c.at, c.compute = f.at, f.compute
			}
		}
	}
	for i, c := range ranks {
		if c.next < len(logs[i]) {
			panic(fmt.Sprintf("bench: replay: rank %d waits on a frame rank %d never sends", i, logs[i][c.next].Peer))
		}
		if c.at > total {
			total, compute = c.at, c.compute
		}
	}
	return compute, total
}

// record runs body on every rank of a fresh size-rank in-process world, one
// goroutine per rank, and returns each rank's log. A failing rank closes the
// world, so no peer stays blocked on it.
func record(size int, body func(c *mpi.Comm) error) ([][]mpi.Event, error) {
	comms := mpi.NewLocalWorld(size)
	closeAll := func() {
		for _, c := range comms {
			c.Close()
		}
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[r] = body(c); errs[r] != nil {
				closeAll()
			}
		}()
	}
	wg.Wait()
	closeAll()
	logs := make([][]mpi.Event, size)
	for r, c := range comms {
		logs[r] = c.Log()
	}
	return logs, errors.Join(errs...)
}

// teamNetRun is the Figure 1(d) protocol for one row as Master.gather runs
// it: rank 0, the master, writes the request frame to each of its k−1 peers,
// runs its own expert, then reads their k−1 reply frames; each peer reads,
// runs its expert and writes. The frames are the codec's (cluster.WireBytes
// of an unpinned whole query), and no gate runs — the paper's argument for
// why TeamNet's combiner is cheaper than MoE gating. The log is built, not
// recorded: gather fixes the protocol's shape, and the codec's size function
// is pinned to the frames that leave.
func teamNetRun(expert *nn.Network, k, features, classes int) run {
	req, rep := cluster.WireBytes(cluster.Policy{Gather: cluster.Own}, 0, 1, features, classes)
	flops := nn.NetworkFLOPs(expert)
	logs := make([][]mpi.Event, k)
	for r := 1; r < k; r++ {
		logs[0] = append(logs[0], mpi.Event{Op: mpi.OpSend, Peer: r, Bytes: req})
		logs[r] = []mpi.Event{{Op: mpi.OpRecv, Peer: 0, Bytes: req}, {Op: mpi.OpWork, FLOPs: flops}, {Op: mpi.OpSend, Peer: 0, Bytes: rep}}
	}
	logs[0] = append(logs[0], mpi.Event{Op: mpi.OpWork, FLOPs: flops})
	for r := 1; r < k; r++ {
		logs[0] = append(logs[0], mpi.Event{Op: mpi.OpRecv, Peer: r, Bytes: rep})
	}
	return run{logs: logs, modelBytes: expert.SizeBytes(), actBytes: nn.PeakActivationBytes(expert, features)}
}

// recordRow is the one input row every recorded run infers.
func recordRow(features int) *tensor.Tensor { return tensor.NewRNG(1).Randn(1, features) }

// recordMPI runs one row through an internal/mpi scheme over k ranks of the
// named paper net. Every rank holds 1/k of the model.
func recordMPI(scheme func(*mpi.Comm, *nn.Network, *tensor.Tensor) (*tensor.Tensor, error),
	name string, k, features int) (run, error) {
	nets, err := paperNets(name, k)
	if err != nil {
		return run{}, err
	}
	x := recordRow(features)
	logs, err := record(len(nets), func(c *mpi.Comm) error {
		var in *tensor.Tensor
		if c.Rank() == 0 {
			in = x
		}
		_, err := scheme(c, nets[c.Rank()], in)
		return err
	})
	return run{
		logs:       logs,
		modelBytes: nets[0].SizeBytes() / int64(len(nets)),
		actBytes:   nn.PeakActivationBytes(nets[0], features),
	}, err
}

// recordSGMoE runs one row through the SG-MoE runtime over k experts of the
// named paper net: MoEMPIMaster with the gate on rank 0, MoEMPIWorker serving
// expert e on rank e+1. The reported device holds one expert and the gate.
func recordSGMoE(expertName string, k, topK, features, classes int) (run, error) {
	experts, err := paperNets(expertName, k)
	if err != nil {
		return run{}, err
	}
	gate, err := paperGate(features, k)
	if err != nil {
		return run{}, err
	}
	model := &moe.SGMoE{Experts: experts, Gate: gate, Cfg: moe.Config{K: k, TopK: topK}, Classes: classes}
	x := recordRow(features)
	logs, err := record(k+1, func(c *mpi.Comm) error {
		if c.Rank() > 0 {
			return cluster.MoEMPIWorker(c, experts[c.Rank()-1])
		}
		m, err := cluster.NewMoEMPIMaster(model, c)
		if err != nil {
			return err
		}
		if _, err := m.Infer(x); err != nil {
			return err
		}
		return m.Shutdown()
	})
	if err != nil {
		return run{}, err
	}
	// Shutdown's zero-row sentinels close every log and are no part of the
	// inference: rank 0's last k sends, each worker's last receive.
	logs[0] = logs[0][:len(logs[0])-k]
	for r := 1; r <= k; r++ {
		logs[r] = logs[r][:len(logs[r])-1]
	}
	return run{
		logs:       logs,
		modelBytes: experts[0].SizeBytes() + gate.SizeBytes(),
		actBytes:   nn.PeakActivationBytes(experts[0], features),
	}, nil
}
