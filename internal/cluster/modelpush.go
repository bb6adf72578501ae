package cluster

// Versioned model distribution: push a new expert snapshot to a running
// node over the wire, no restart. The payload decodes to one Model (label
// and weights, model.go) that one store swaps in. It is self-describing — an
// nn.Spec (JSON) to rebuild the architecture plus the nn/snapshot codec
// stream to load its weights — because the snapshot codec deliberately
// refuses to invent structure: LoadNetworkInto wants a pre-built identical
// network. A push may also be version-only (no weights), which lets an
// operator re-label a fleet or drive a gateway's cache invalidation without
// moving bytes.
//
// Cutover ordering matters and is the caller's job (see OPERATIONS.md):
// push workers first, then masters, then bump each gateway's model version
// — the gateway's SetModelVersion purges the response cache, and the
// versioned-put guard (serve/cache.go) rejects any in-flight result
// computed under the old version, so no stale answer survives the swap.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/tensor"
)

// maxPushVersionLen bounds the version label on the wire.
const maxPushVersionLen = 256

// EncodeModelPush builds a MsgModelPush payload. net may be nil for a
// version-only push (re-label without new weights); otherwise spec must
// describe net's architecture.
func EncodeModelPush(version string, spec nn.Spec, net *nn.Network) ([]byte, error) {
	if len(version) == 0 || len(version) > maxPushVersionLen {
		return nil, fmt.Errorf("cluster: model push version length %d, want 1..%d", len(version), maxPushVersionLen)
	}
	var out bytes.Buffer
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(version)))
	out.Write(u16[:])
	out.WriteString(version)
	if net == nil {
		out.WriteByte(0)
		return out.Bytes(), nil
	}
	out.WriteByte(1)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: model push spec: %w", err)
	}
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(specJSON)))
	out.Write(u32[:])
	out.Write(specJSON)
	if err := nn.SaveNetwork(&out, net); err != nil {
		return nil, fmt.Errorf("cluster: model push weights: %w", err)
	}
	return out.Bytes(), nil
}

// DecodeModelPush parses a MsgModelPush payload into the Model it carries:
// when the push has weights it rebuilds the network and compiles a fresh
// inference snapshot, and a version-only push decodes to a Model with no
// snapshot — the form Swap and SetLocal take as "re-label".
func DecodeModelPush(payload []byte) (Model, error) {
	if len(payload) < 3 {
		return Model{}, fmt.Errorf("cluster: model push payload %d bytes", len(payload))
	}
	vlen := int(binary.BigEndian.Uint16(payload))
	rest := payload[2:]
	if vlen == 0 || vlen > maxPushVersionLen || len(rest) < vlen+1 {
		return Model{}, fmt.Errorf("cluster: model push version length %d out of range", vlen)
	}
	m := Model{Version: string(rest[:vlen])}
	rest = rest[vlen:]
	if rest[0] == 0 {
		return m, nil
	}
	rest = rest[1:]
	if len(rest) < 4 {
		return Model{}, fmt.Errorf("cluster: model push truncated before spec")
	}
	specLen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if specLen <= 0 || specLen > len(rest) {
		return Model{}, fmt.Errorf("cluster: model push spec length %d out of range", specLen)
	}
	var spec nn.Spec
	if err := json.Unmarshal(rest[:specLen], &spec); err != nil {
		return Model{}, fmt.Errorf("cluster: model push spec: %w", err)
	}
	net, err := spec.Build(tensor.NewRNG(0))
	if err != nil {
		return Model{}, fmt.Errorf("cluster: model push build: %w", err)
	}
	if err := nn.LoadNetworkInto(bytes.NewReader(rest[specLen:]), net); err != nil {
		return Model{}, fmt.Errorf("cluster: model push load: %w", err)
	}
	if m.Snapshot, err = nn.NewSnapshot(net); err != nil {
		return Model{}, fmt.Errorf("cluster: model push compile: %w", err)
	}
	return m, nil
}

// servePush applies one model push. The swap happens before the ack — the
// reply carrying the version — so a successful PushModel means the node
// already serves the new version. A bad push costs one MsgErrorMux, and so
// does a refused one — weights whose widths differ from the served model's —
// with nothing swapped and "model.push_refused" counted.
func (n *Node) servePush(_ context.Context, _ *Model, body []byte) (byte, []byte, time.Duration) {
	pushed, err := DecodeModelPush(body)
	if err != nil {
		return errorReply(err)
	}
	if err := n.Cutover(pushed); err != nil {
		n.master.metrics.Counter("model.push_refused").Inc()
		return errorReply(err)
	}
	return MsgReply, []byte(pushed.Version), 0
}

// PushModel delivers one versioned snapshot to a serving node (worker or
// master server) and waits for the acknowledgement. The receiver compiles
// and swaps atomically before acking, so a successful return means the node
// is already serving the new version.
func PushModel(addr, version string, spec nn.Spec, net *nn.Network, timeout time.Duration) error {
	payload, err := EncodeModelPush(version, spec, net)
	if err != nil {
		return err
	}
	acked, err := dialCall(addr, timeout, MsgModelPush, payload)
	if err != nil {
		return fmt.Errorf("cluster: model push %s: %w", addr, err)
	}
	if got := string(acked); got != version {
		return fmt.Errorf("cluster: model push %s: node acked version %q, want %q", addr, got, version)
	}
	return nil
}
