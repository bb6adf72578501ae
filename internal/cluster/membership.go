package cluster

// Fabric membership: who is serving what, learned over the same supervised
// TCP links the inference traffic rides on. There is no central registry —
// every node keeps a Roster, and every MsgAnnounce exchange merges both
// sides' views (the announcement carries the sender's own descriptor plus a
// bounded sample of its roster), so reachability information spreads
// epidemically: a gateway that bootstraps against one master learns about
// the others within a couple of announce rounds. Entries expire when not
// re-announced within a TTL, which is how leaves and crashes age out
// without a failure detector of their own — routing-level health (the
// supervisor's breakers, on a front's masters as on a master's workers)
// reacts much faster; the roster only has to be eventually right.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Member roles.
const (
	RoleMaster  = "master"
	RoleWorker  = "worker"
	RoleGateway = "gateway"
)

// Member describes one fabric node: its role, the address it serves on
// (empty for nodes that only consume, e.g. a pure gateway), its election
// identity and the model version it currently serves.
type Member struct {
	Role    string `json:"role"`
	Addr    string `json:"addr"`
	ID      int    `json:"id"`
	Version string `json:"version,omitempty"`
}

// key is the roster identity: one entry per (role, addr).
func (m Member) key() string { return m.Role + "|" + m.Addr }

// announcement is the MsgAnnounce body and the body of its reply.
type announcement struct {
	From  Member   `json:"from"`
	Known []Member `json:"known,omitempty"`
}

// maxGossip bounds how many roster entries ride along with one announce, so
// a large fleet's announcements stay one small frame.
const maxGossip = 64

// Roster is the mutable membership view one node maintains. Safe for
// concurrent use.
type Roster struct {
	mu      sync.Mutex
	entries map[string]rosterEntry
}

type rosterEntry struct {
	m    Member
	seen time.Time
	// direct marks a first-hand entry: the member itself announced, rather
	// than a third node gossiping about it. First-hand data outranks gossip
	// — see Merge.
	direct bool
}

// NewRoster returns an empty roster.
func NewRoster() *Roster {
	return &Roster{entries: make(map[string]rosterEntry)}
}

// Upsert records (or refreshes) one member from a first-hand announcement
// — the member itself spoke, so its descriptor (in particular Version) is
// authoritative and unconditionally replaces whatever the roster held.
// This is what makes re-admission after a TTL expiry clean: a node that
// crashed, aged out, and came back under a new model version is live again
// with the new version the moment it re-announces, regardless of what
// stale gossip said meanwhile. Members without an address are not tracked —
// there is nothing to route to or gossip about.
func (r *Roster) Upsert(m Member) {
	if m.Addr == "" {
		return
	}
	r.mu.Lock()
	r.entries[m.key()] = rosterEntry{m: m, seen: time.Now(), direct: true}
	r.mu.Unlock()
}

// Merge folds in a gossip sample (the Known half of an announce exchange).
// Gossip is second-hand and carries no timestamps, so it ranks below
// first-hand data: it may introduce members this node has never met and
// refresh or update entries that were themselves learned from gossip, but
// it never rewrites a first-hand entry with different data — a stale echo
// of a member's pre-crash descriptor must not clobber (or keep refreshing)
// the descriptor the re-admitted member announced itself.
func (r *Roster) Merge(ms []Member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		if m.Addr == "" {
			continue
		}
		k := m.key()
		if e, ok := r.entries[k]; ok && e.direct {
			if e.m != m {
				continue // stale echo about a member we know first-hand
			}
			e.seen = time.Now()
			r.entries[k] = e // confirming echo refreshes without demoting
			continue
		}
		r.entries[k] = rosterEntry{m: m, seen: time.Now()}
	}
}

// Expire drops entries not refreshed within ttl and returns how many died.
func (r *Roster) Expire(ttl time.Duration) int {
	cutoff := time.Now().Add(-ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k, e := range r.entries {
		if e.seen.Before(cutoff) {
			delete(r.entries, k)
			n++
		}
	}
	return n
}

// Snapshot returns the current membership, sorted by role then address for
// deterministic iteration.
func (r *Roster) Snapshot() []Member {
	r.mu.Lock()
	out := make([]Member, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Masters returns the addresses of every known master.
func (r *Roster) Masters() []string {
	var out []string
	for _, m := range r.Snapshot() {
		if m.Role == RoleMaster {
			out = append(out, m.Addr)
		}
	}
	return out
}

// gossipSample returns at most maxGossip members to ride along an announce.
func (r *Roster) gossipSample() []Member {
	ms := r.Snapshot()
	if len(ms) > maxGossip {
		ms = ms[:maxGossip]
	}
	return ms
}

// encodeAnnouncement serializes one announce payload.
func encodeAnnouncement(from Member, known []Member) []byte {
	b, _ := json.Marshal(announcement{From: from, Known: known})
	return b
}

// decodeAnnouncement parses one announce payload.
func decodeAnnouncement(payload []byte) (announcement, error) {
	var a announcement
	if err := json.Unmarshal(payload, &a); err != nil {
		return announcement{}, fmt.Errorf("cluster: decode announcement: %w", err)
	}
	return a, nil
}

// serveAnnounce is the server half of one exchange: merge the sender's view
// into the node's roster, then answer with the node's descriptor plus a
// gossip sample. An undecodable announcement costs one MsgErrorMux.
func (n *Node) serveAnnounce(_ context.Context, _ *Model, body []byte) (byte, []byte, time.Duration) {
	a, err := decodeAnnouncement(body)
	if err != nil {
		return errorReply(err)
	}
	n.roster.Upsert(a.From)
	n.roster.Merge(a.Known)
	return MsgReply, encodeAnnouncement(n.Member(), n.roster.gossipSample()), 0
}

// Announce performs the client half of one membership exchange: dial addr,
// present self (and a sample of known peers), and merge the reply into
// roster. It returns the remote's own descriptor. Gateways call this
// against their bootstrap masters on a timer; the reply's gossip is how
// they discover masters they were never configured with.
func Announce(addr string, self Member, roster *Roster, timeout time.Duration) (Member, error) {
	var known []Member
	if roster != nil {
		known = roster.gossipSample()
	}
	reply, err := dialCall(addr, timeout, MsgAnnounce, encodeAnnouncement(self, known))
	if err != nil {
		return Member{}, fmt.Errorf("cluster: announce %s: %w", addr, err)
	}
	a, err := decodeAnnouncement(reply)
	if err != nil {
		return Member{}, err
	}
	if roster != nil {
		roster.Upsert(a.From)
		roster.Merge(a.Known)
	}
	return a.From, nil
}
