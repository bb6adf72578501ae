package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"
)

// electProbeTimeout bounds one election probe (dial + round trip): a
// stalled peer must count as dead, not wedge the election.
const electProbeTimeout = 2 * time.Second

// Bully leader election — the distributed option for Figure 1(d) step 5
// ("this last step can be done distributedly, e.g., using a leader election
// protocol"). Every node has a distinct non-negative id; the reachable node
// with the highest id is the leader and takes the master role.

// ElectLeader runs one election round from this node's point of view: it
// polls every peer, collects their ids, and returns the winning id and
// whether this node won. Unreachable peers are treated as failed (the
// bully rule: dead nodes lose).
func ElectLeader(myID int, peerAddrs []string) (isLeader bool, leaderID int, err error) {
	leaderID = myID
	reachable := 0
	for _, addr := range peerAddrs {
		id, perr := probePeerID(addr)
		if perr != nil {
			continue // unreachable peer: excluded from the election
		}
		reachable++
		if id > leaderID {
			leaderID = id
		}
		if id == myID {
			return false, 0, fmt.Errorf("cluster: duplicate election id %d at %s", myID, addr)
		}
	}
	if len(peerAddrs) > 0 && reachable == 0 {
		// Degenerate but legal: everyone else is down, we lead alone.
		return true, myID, nil
	}
	return leaderID == myID, leaderID, nil
}

// serveElection answers an election probe with this node's id as 4
// big-endian bytes. Bully: any node hearing an election answers (it will run
// its own election).
func (n *Node) serveElection(context.Context, *Model, []byte) (byte, []byte, time.Duration) {
	return MsgReply, binary.BigEndian.AppendUint32(nil, uint32(n.id)), 0
}

// probePeerID asks one node for its election id.
func probePeerID(addr string) (int, error) {
	reply, err := dialCall(addr, electProbeTimeout, MsgElection, nil)
	if err != nil {
		return 0, fmt.Errorf("cluster: election %s: %w", addr, err)
	}
	if len(reply) != 4 {
		return 0, fmt.Errorf("cluster: election reply %d bytes from %s, want 4", len(reply), addr)
	}
	return int(binary.BigEndian.Uint32(reply)), nil
}
