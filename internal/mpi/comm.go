// Package mpi implements the message-passing substrate behind the paper's
// three baseline parallelization schemes (MPI-Matrix, MPI-Kernel,
// MPI-Branch) and the SG-MoE-M transport: a fixed-size world of ranks with
// point-to-point sends and root-centric collectives, running over a mesh of
// in-process pipes (NewLocalWorld) that still carries every tensor through
// the real wire encoding.
//
// The substrate deliberately mirrors how the paper uses MPI: per-layer
// collectives whose frequency — not sophistication — is what makes the MPI
// baselines slow on WiFi. Every rank logs what it does (Log): each frame it
// writes or reads, with its peer and wire bytes, and the compute the
// runtimes declare where they do it (Work). The paper's tables price that
// log with internal/edgesim's arithmetic, so they price what the code sends.
//
// Collectives are root-centric (gather to rank 0, then broadcast), giving
// deadlock-freedom even over synchronous in-process pipes: every
// communication pattern is a tree rooted at rank 0, and Exchange orders the
// two directions by rank.
package mpi

import (
	"fmt"
	"net"
	"sync"

	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// frame type for MPI payloads.
const msgTensor byte = 1

// Op is what one logged event did.
type Op uint8

const (
	// OpSend wrote one frame to Peer.
	OpSend Op = iota + 1
	// OpRecv read one frame from Peer.
	OpRecv
	// OpWork computed FLOPs.
	OpWork
)

// Event is one entry of a rank's log.
type Event struct {
	Op    Op
	Peer  int     // OpSend, OpRecv: the other rank
	Bytes int     // OpSend, OpRecv: the frame's wire size, header included
	FLOPs float64 // OpWork
}

// Comm is one rank's endpoint in an n-rank world. It is safe for use from
// one goroutine per peer direction; the collectives serialize internally.
type Comm struct {
	rank, size int
	peers      []net.Conn // peers[r] is the link to rank r; nil at r == rank

	mu  sync.Mutex
	log []Event
}

// Rank returns this communicator's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Log returns a copy of every event this rank has logged, in order.
func (c *Comm) Log() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.log...)
}

// Work logs flops of compute at this point of the rank's run.
func (c *Comm) Work(flops float64) { c.record(Event{Op: OpWork, FLOPs: flops}) }

func (c *Comm) record(e Event) {
	c.mu.Lock()
	c.log = append(c.log, e)
	c.mu.Unlock()
}

// NewLocalWorld builds an n-rank world connected by in-process pipes.
// The returned comms must each be driven from their own goroutine, as in a
// real MPI job. Intended for tests and the benchmark harness; the data
// still passes through the real wire encoding.
func NewLocalWorld(n int) []*Comm {
	if n < 1 {
		panic("mpi: world size must be ≥ 1")
	}
	comms := make([]*Comm, n)
	for r := range comms {
		comms[r] = &Comm{rank: r, size: n, peers: make([]net.Conn, n)}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ca, cb := net.Pipe()
			comms[a].peers[b] = ca
			comms[b].peers[a] = cb
		}
	}
	return comms
}

// Close tears down all peer links.
func (c *Comm) Close() error {
	var firstErr error
	for _, conn := range c.peers {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Send transmits a tensor to the given rank.
func (c *Comm) Send(to int, t *tensor.Tensor) error {
	if to == c.rank {
		return fmt.Errorf("mpi: rank %d send to self", c.rank)
	}
	payload := transport.EncodeTensor(t)
	if err := transport.WriteFrame(c.peers[to], msgTensor, payload); err != nil {
		return fmt.Errorf("mpi: rank %d send to %d: %w", c.rank, to, err)
	}
	c.record(Event{Op: OpSend, Peer: to, Bytes: transport.FrameWireSize(len(payload))})
	return nil
}

// Recv receives the next tensor from the given rank.
func (c *Comm) Recv(from int) (*tensor.Tensor, error) {
	if from == c.rank {
		return nil, fmt.Errorf("mpi: rank %d recv from self", c.rank)
	}
	typ, payload, err := transport.ReadFrame(c.peers[from])
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d recv from %d: %w", c.rank, from, err)
	}
	if typ != msgTensor {
		return nil, fmt.Errorf("mpi: rank %d recv unexpected frame type %d", c.rank, typ)
	}
	t, _, err := transport.DecodeTensor(payload)
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d decode from %d: %w", c.rank, from, err)
	}
	c.record(Event{Op: OpRecv, Peer: from, Bytes: transport.FrameWireSize(len(payload))})
	return t, nil
}

// Exchange swaps tensors with one peer, ordering the directions by rank so
// head-to-head exchanges cannot deadlock over synchronous links.
func (c *Comm) Exchange(peer int, t *tensor.Tensor) (*tensor.Tensor, error) {
	if c.rank < peer {
		if err := c.Send(peer, t); err != nil {
			return nil, err
		}
		return c.Recv(peer)
	}
	got, err := c.Recv(peer)
	if err != nil {
		return nil, err
	}
	if err := c.Send(peer, t); err != nil {
		return nil, err
	}
	return got, nil
}

// Bcast distributes root's tensor to every rank; non-roots pass nil and
// receive the broadcast value.
func (c *Comm) Bcast(root int, t *tensor.Tensor) (*tensor.Tensor, error) {
	if c.rank == root {
		for r := 0; r < c.size; r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, t); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	return c.Recv(root)
}

// Gather collects every rank's tensor at root (index = rank); non-roots get
// nil back.
func (c *Comm) Gather(root int, t *tensor.Tensor) ([]*tensor.Tensor, error) {
	if c.rank == root {
		out := make([]*tensor.Tensor, c.size)
		out[root] = t
		for r := 0; r < c.size; r++ {
			if r == root {
				continue
			}
			got, err := c.Recv(r)
			if err != nil {
				return nil, err
			}
			out[r] = got
		}
		return out, nil
	}
	if err := c.Send(root, t); err != nil {
		return nil, err
	}
	return nil, nil
}

// Allgather gives every rank the full list of per-rank tensors, implemented
// as gather-to-0 plus per-rank rebroadcast.
func (c *Comm) Allgather(t *tensor.Tensor) ([]*tensor.Tensor, error) {
	gathered, err := c.Gather(0, t)
	if err != nil {
		return nil, err
	}
	if c.rank == 0 {
		out := gathered
		// Send the full set to each non-root rank.
		for r := 1; r < c.size; r++ {
			for i := 0; i < c.size; i++ {
				if err := c.Send(r, out[i]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	out := make([]*tensor.Tensor, c.size)
	for i := 0; i < c.size; i++ {
		got, err := c.Recv(0)
		if err != nil {
			return nil, err
		}
		out[i] = got
	}
	return out, nil
}

// AllreduceSum element-wise sums every rank's tensor and distributes the
// result to all ranks. This is the per-layer collective of MPI-Matrix.
func (c *Comm) AllreduceSum(t *tensor.Tensor) (*tensor.Tensor, error) {
	gathered, err := c.Gather(0, t)
	if err != nil {
		return nil, err
	}
	if c.rank == 0 {
		sum := gathered[0].Clone()
		for _, g := range gathered[1:] {
			sum.AddScaled(g, 1)
		}
		return c.Bcast(0, sum)
	}
	return c.Bcast(0, nil)
}
