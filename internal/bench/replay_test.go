package bench

import (
	"math"
	"testing"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/edgesim"
	"github.com/teamnet/teamnet/internal/mpi"
	"github.com/teamnet/teamnet/internal/nn"
)

func send(peer, bytes int) mpi.Event { return mpi.Event{Op: mpi.OpSend, Peer: peer, Bytes: bytes} }
func recv(peer, bytes int) mpi.Event { return mpi.Event{Op: mpi.OpRecv, Peer: peer, Bytes: bytes} }
func work(flops float64) mpi.Event   { return mpi.Event{Op: mpi.OpWork, FLOPs: flops} }

func TestReplayOneFrameIsUnicast(t *testing.T) {
	dev := edgesim.JetsonTX2CPU()
	for _, tr := range []edgesim.Transport{edgesim.Socket(), edgesim.GRPC(), edgesim.MPI()} {
		n := edgesim.Net{Link: edgesim.WiFi(), Transport: tr}
		compute, total := replay(dev, n, false, 0, [][]mpi.Event{{send(1, 3145)}, {recv(0, 3145)}})
		if compute != 0 || total != n.Unicast(3145) {
			t.Fatalf("%s: one frame priced %v (compute %v), Net.Unicast says %v", tr.Name, total, compute, n.Unicast(3145))
		}
	}

	// A two-expert TeamNet of zero FLOPs is one request frame out and one
	// reply frame back, each the codec's size.
	n := edgesim.Net{Link: edgesim.WiFi(), Transport: edgesim.Socket()}
	req, rep := cluster.WireBytes(cluster.Policy{Gather: cluster.Own}, 0, 1, 784, 10)
	c := teamNetRun(&nn.Network{}, 2, 784, 10).cost(dev, n.Link, n.Transport, false)
	if want := n.Unicast(req) + n.Unicast(rep); c.ComputeSec != 0 || math.Abs(c.CommSec-want) > 1e-15 {
		t.Fatalf("K=2 TeamNet priced %v s (compute %v), two unicasts say %v", c.CommSec, c.ComputeSec, want)
	}
	if (Cost{}).Ms() != 0 {
		t.Fatal("zero cost not zero")
	}
}

func TestReplayFanOutFanIn(t *testing.T) {
	// Rank 0 computes, sends b bytes to ranks 1 and 2, and reads c bytes back
	// from each; each worker computes in between. Per-message cost outweighs
	// a frame's airtime, so no frame finds the medium busy: the path runs
	// through rank 2, whose request went out one marshalling later.
	dev := edgesim.JetsonTX2CPU()
	n := edgesim.Net{Link: edgesim.WiFi(), Transport: edgesim.MPI()}
	const b, c, f0, f = 3145, 53, 1e5, 4e6
	logs := [][]mpi.Event{
		{work(f0), send(1, b), send(2, b), recv(1, c), recv(2, c)},
		{recv(0, b), work(f), send(0, c)},
		{recv(0, b), work(f), send(0, c)},
	}
	compute, total := replay(dev, n, false, 0, logs)
	w0, w := dev.ComputeTime(f0, false), dev.ComputeTime(f, false)
	p, lat := n.Transport.PerMessageSec, n.Link.LatencySec
	want := w0 + 3*p + 2*lat + n.Link.TransferSec(b) + n.Link.TransferSec(c) + w
	if math.Abs(total-want) > 1e-12 || math.Abs(compute-(w0+w)) > 1e-12 {
		t.Fatalf("fan-out/fan-in priced %v (compute %v), want %v (compute %v)", total, compute, want, w0+w)
	}

	// The envelope rides every frame.
	_, wrapped := replay(dev, n, false, 18, logs)
	if grown := wrapped - total; math.Abs(grown-2*n.Link.TransferSec(18)) > 1e-12 {
		t.Fatalf("an 18-byte envelope added %v, want two frames' worth %v", grown, 2*n.Link.TransferSec(18))
	}
}

func TestReplayConcurrentFramesAreNetGather(t *testing.T) {
	// k−1 ranks writing at once to one receiver contend for the medium.
	n := edgesim.Net{Link: edgesim.WiFi(), Transport: edgesim.Socket()}
	logs := [][]mpi.Event{{recv(1, 900), recv(2, 900), recv(3, 900)}}
	for r := 1; r <= 3; r++ {
		logs = append(logs, []mpi.Event{send(0, 900)})
	}
	_, total := replay(edgesim.JetsonTX2CPU(), n, false, 0, logs)
	if math.Abs(total-n.Gather(900, 3)) > 1e-12 {
		t.Fatalf("three concurrent frames priced %v, Net.Gather says %v", total, n.Gather(900, 3))
	}
}

func TestReplayRejectsUnmatchedRecv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a receive with no matching send was priced")
		}
	}()
	replay(edgesim.JetsonTX2CPU(), edgesim.Net{Link: edgesim.WiFi(), Transport: edgesim.MPI()}, false, 0,
		[][]mpi.Event{{recv(1, 10)}, {}})
}

func TestRecordedSGMoEEndsAtItsReplies(t *testing.T) {
	// Shutdown's sentinels are trimmed: rank 0 gates, sends topK requests and
	// reads topK replies; every selected worker reads, computes and replies.
	r, err := recordSGMoE("MLP-2", 4, 2, 784, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.logs[0]); got != 1+2*2 {
		t.Fatalf("rank 0 logged %d events, want gate + 2 sends + 2 receives: %+v", got, r.logs[0])
	}
	served := 0
	for _, log := range r.logs[1:] {
		switch len(log) {
		case 0:
		case 3:
			served++
		default:
			t.Fatalf("worker logged %+v, want nothing or receive, work, send", log)
		}
	}
	if served != 2 {
		t.Fatalf("%d workers served the row, want topK = 2", served)
	}
}
