package cluster

import (
	"fmt"
	"sync/atomic"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
)

// Model is what a node serves: frozen weights and the label that names them,
// immutable once published. A node holds exactly one behind one atomic
// pointer, so whoever loads it — the pin check in serveRequest, a forward
// pass, the announce descriptor, the master pinning a split tail — reads a
// label and the weights it labels from the same store.
type Model struct {
	// Snapshot is the frozen expert, safe for concurrent inference. Nil on a
	// served model: a pure coordinator (a Master with no local expert). Nil
	// on a model handed to Swap/SetLocal: keep the weights being served, the
	// wire's version-only push.
	Snapshot *nn.Snapshot
	Version  string
}

// publish is the one store behind Worker.Swap and Master.SetLocal: next
// replaces the served model in a single pointer swap — with no snapshot it
// re-labels the weights being served — and weights changing hands count one
// "model.swaps" in reg. New weights must keep the served input width and
// classifier width (classes when the node fixes one, else the served
// snapshot's): a worker whose rows change width fails every reply's shape
// check at its master, which reads as a link fault and trips the breaker on a
// healthy node, and a master's gate would silently truncate or zero-pad them.
func publish(p *atomic.Pointer[Model], next Model, classes int, reg *metrics.Registry) error {
	for {
		cur := p.Load()
		m := next
		if m.Snapshot == nil {
			m.Snapshot = cur.Snapshot
		} else if err := checkWidths(cur.Snapshot, m.Snapshot, classes); err != nil {
			return err
		}
		if p.CompareAndSwap(cur, &m) {
			if next.Snapshot != nil && cur.Snapshot != nil {
				reg.Counter("model.swaps").Inc()
			}
			return nil
		}
	}
}

func checkWidths(cur, next *nn.Snapshot, classes int) error {
	in, out := next.BoundaryWidth(0), next.BoundaryWidth(next.Steps())
	if cur != nil {
		if want := cur.BoundaryWidth(0); in != want {
			return fmt.Errorf("cluster: model takes %d-wide inputs, the served one %d", in, want)
		}
		if classes == 0 {
			classes = cur.BoundaryWidth(cur.Steps())
		}
	}
	if classes != 0 && out != classes {
		return fmt.Errorf("cluster: model answers %d classes, this node serves %d", out, classes)
	}
	return nil
}
