package cluster

import (
	"fmt"

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

// SetLocal is the one store behind every model change (Node.Swap, a wire
// push, a co-located gateway's cutover): next replaces the master's local
// model in a single pointer swap, without interrupting in-flight inferences —
// queries that already loaded the old one finish on it (and pin their split
// tails to its label), later queries see next. With no snapshot, next
// re-labels the weights being served; weights changing hands count one
// "model.swaps". New weights must keep the served input width and the
// master's classifier width: a worker whose rows change width fails every
// reply's shape check at its master, which reads as a link fault and trips
// the breaker on a healthy node, and a master's gate would silently truncate
// or zero-pad them. A co-located gateway bumps its model version afterwards
// to invalidate the old cached answers.
func (m *Master) SetLocal(next Model) error {
	for {
		cur := m.local.Load()
		served := next
		if served.Snapshot == nil {
			served.Snapshot = cur.Snapshot
		} else if err := m.checkWidths(cur.Snapshot, served.Snapshot); err != nil {
			return err
		}
		if m.local.CompareAndSwap(cur, &served) {
			if next.Snapshot != nil && cur.Snapshot != nil {
				m.metrics.Counter("model.swaps").Inc()
			}
			return nil
		}
	}
}

func (m *Master) checkWidths(cur, next *nn.Snapshot) error {
	in, out := next.BoundaryWidth(0), next.BoundaryWidth(next.Steps())
	if cur != nil {
		if want := cur.BoundaryWidth(0); in != want {
			return fmt.Errorf("cluster: model takes %d-wide inputs, the served one %d", in, want)
		}
	}
	if out != m.classes {
		return fmt.Errorf("cluster: model answers %d classes, this node serves %d", out, m.classes)
	}
	return nil
}
