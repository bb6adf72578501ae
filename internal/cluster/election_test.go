package cluster

import (
	"net"
	"strings"
	"testing"

	"github.com/teamnet/teamnet/internal/transport"
)

// Election wire-width regression tests. Pre-fix builds encoded the election
// id as a single byte, truncating ids ≥ 256 mod 256 on the wire: id 256
// looked like 0, id 300 like 44 — electing the wrong leader and spuriously
// reporting duplicates. The reply is 4 bytes big-endian and nothing else.

// electionWorker starts a predict-capable worker just for its election id.
func electionWorker(t *testing.T, seed int64, id int) string {
	t.Helper()
	w := NewWorker(tinyExpert(t, seed), id)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return addr
}

// TestElectionWideIDs elects among ids {1, 256, 300}: exactly the set the
// one-byte wire format garbled (256→0, 300→44, electing 1).
func TestElectionWideIDs(t *testing.T) {
	w256 := electionWorker(t, 110, 256)
	w300 := electionWorker(t, 111, 300)

	// Node 1's view: both big ids survive the wire, 300 wins.
	isLeader, leaderID, err := ElectLeader(1, []string{w256, w300})
	if err != nil {
		t.Fatal(err)
	}
	if isLeader || leaderID != 300 {
		t.Fatalf("node 1 sees leader %d (isLeader=%v), want 300", leaderID, isLeader)
	}

	// Node 300's view: it beats 1 and 256 and takes the master role.
	w1 := electionWorker(t, 112, 1)
	isLeader, leaderID, err = ElectLeader(300, []string{w1, w256})
	if err != nil {
		t.Fatal(err)
	}
	if !isLeader || leaderID != 300 {
		t.Fatalf("node 300 sees leader %d (isLeader=%v), want itself", leaderID, isLeader)
	}

	// Pre-fix, id 256 truncated to 0 and collided with a node whose id
	// really is 0 — a spurious duplicate. Now it must read as a clean loss.
	isLeader, leaderID, err = ElectLeader(0, []string{w256})
	if err != nil {
		t.Fatalf("id 0 vs id 256 reported a spurious duplicate: %v", err)
	}
	if isLeader || leaderID != 256 {
		t.Fatalf("node 0 sees leader %d (isLeader=%v), want 256", leaderID, isLeader)
	}
}

// rawElectionPeer answers one election probe, under its id, with a reply
// body of the given raw bytes — modeling corrupt replies.
func rawElectionPeer(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				typ, payload, err := transport.ReadFrame(conn)
				if err != nil || typ != MsgElection {
					return
				}
				if h, _, err := decodeRequestHeader(payload); err == nil {
					(&connWriter{conn: conn}).writeReply(MsgReply, replyHeader{id: h.id}, reply) //nolint:errcheck
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestElectionRejectsMalformedIDWidth: an id that is not exactly 4 bytes is
// a protocol error, not a guess.
func TestElectionRejectsMalformedIDWidth(t *testing.T) {
	for _, reply := range [][]byte{{42}, {1, 2}} {
		addr := rawElectionPeer(t, reply)
		if _, err := probePeerID(addr); err == nil || !strings.Contains(err.Error(), "want 4") {
			t.Fatalf("%d-byte election id accepted: %v", len(reply), err)
		}
	}
}
