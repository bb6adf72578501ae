package edgesim

// Link models a shared wireless medium between edge nodes.
type Link struct {
	Name string
	// LatencySec is the one-way per-message medium latency.
	LatencySec float64
	// BandwidthBps is the effective payload bandwidth in bits per second.
	BandwidthBps float64
	// ContentionSec is the extra medium-access cost per additional
	// concurrent peer in a fan-out or fan-in: WiFi is a shared half-duplex
	// medium, so transmissions to/from multiple peers serialize and pay
	// CSMA contention.
	ContentionSec float64
}

// WiFi models the paper's testbed link: consumer WiFi between co-located
// devices. The fixed cost is what the paper calls the "fixed cost over the
// WiFi communication" that erases TeamNet's advantage for tiny GPU models.
func WiFi() Link {
	return Link{Name: "wifi", LatencySec: 0.0004, BandwidthBps: 100e6, ContentionSec: 0.0003}
}

// Loopback models the same host (used to sanity-check the model against
// live local runs).
func Loopback() Link {
	return Link{Name: "loopback", LatencySec: 0.00002, BandwidthBps: 10e9}
}

// TransferSec returns the serialization time of n bytes on the link.
func (l Link) TransferSec(n int) float64 {
	return float64(8*n) / l.BandwidthBps
}

// Transport models the software stack a message passes through. The paper
// compares three: raw TCP sockets (TeamNet), gRPC (SG-MoE-G), and MPI
// (MPI-* and SG-MoE-M). They differ in per-message software overhead and in
// whether waiting burns CPU (MPI implementations busy-poll for progress,
// which is why the paper's SG-MoE-M shows far higher CPU than SG-MoE-G).
type Transport struct {
	Name string
	// PerMessageSec is the fixed software cost per message (marshalling,
	// syscalls, protocol state), beyond link latency and bandwidth.
	PerMessageSec float64
	// BusyWait marks stacks that spin while waiting (MPI progress engines):
	// communication time then counts as CPU-busy in the usage model.
	BusyWait bool
}

// Socket is the raw TCP socket transport used by TeamNet's runtime.
func Socket() Transport { return Transport{Name: "socket", PerMessageSec: 0.0001} }

// GRPC is the RPC transport used by SG-MoE-G: per-call envelope handling
// and dispatch cost on top of TCP.
func GRPC() Transport { return Transport{Name: "grpc", PerMessageSec: 0.0006} }

// MPI is the MPI library transport: heavyweight per-message progress and
// matching overhead when run over WiFi instead of a cluster interconnect,
// and a busy-polling wait model.
func MPI() Transport { return Transport{Name: "mpi", PerMessageSec: 0.0055, BusyWait: true} }

// Net combines a link and a transport into the message-cost primitives the
// benchmark harness composes. All costs are modeled on the critical path of
// one inference.
type Net struct {
	Link      Link
	Transport Transport
}

// Unicast returns the time for one message of n payload bytes.
func (n Net) Unicast(bytes int) float64 {
	return n.Transport.PerMessageSec + n.Link.LatencySec + n.Link.TransferSec(bytes)
}

// Gather returns the time for peers messages of n bytes each converging on
// one receiver over the shared medium.
func (n Net) Gather(bytes, peers int) float64 {
	if peers <= 0 {
		return 0
	}
	return n.Transport.PerMessageSec + n.Link.LatencySec +
		float64(peers)*n.Link.TransferSec(bytes) + float64(peers-1)*n.Link.ContentionSec
}
