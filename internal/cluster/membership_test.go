package cluster

import (
	"testing"
	"time"
)

// Len reports the entry count.
func (r *Roster) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// TestRosterReadmitsExpiredMemberWithNewVersion pins the crash-and-return
// edge case: a member whose entry TTL-expired re-announces under a new
// model version and must be live again immediately, with the new version —
// and stale gossip echoes of its pre-crash descriptor must neither clobber
// the re-admitted entry nor keep a dead incarnation alive.
func TestRosterReadmitsExpiredMemberWithNewVersion(t *testing.T) {
	r := NewRoster()
	old := Member{Role: RoleWorker, Addr: "10.0.0.7:9000", ID: 4, Version: "v1"}
	r.Upsert(old)
	if r.Len() != 1 {
		t.Fatalf("roster holds %d entries, want 1", r.Len())
	}

	// The worker crashes and its entry ages out.
	if n := r.Expire(0); n != 1 {
		t.Fatalf("Expire dropped %d entries, want 1", n)
	}

	// It comes back under a new model version and announces first-hand.
	fresh := Member{Role: RoleWorker, Addr: "10.0.0.7:9000", ID: 4, Version: "v2"}
	r.Upsert(fresh)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0] != fresh {
		t.Fatalf("re-admitted roster = %+v, want exactly %+v", snap, fresh)
	}

	// A third node that never heard of the crash gossips the pre-crash
	// descriptor. Second-hand data must not rewrite the first-hand entry.
	r.Merge([]Member{old})
	snap = r.Snapshot()
	if len(snap) != 1 || snap[0].Version != "v2" {
		t.Fatalf("stale gossip clobbered the re-admitted member: %+v", snap)
	}

	// A confirming echo (matching descriptor) refreshes the entry without
	// demoting it: a later stale echo still cannot rewrite it.
	r.Merge([]Member{fresh})
	r.Merge([]Member{old})
	if snap = r.Snapshot(); snap[0].Version != "v2" {
		t.Fatalf("stale gossip clobbered after a confirming echo: %+v", snap)
	}
}

// TestRosterGossipStillDiscoversAndUpdates pins that the first-hand
// precedence does not break gossip's actual jobs: introducing unknown
// members and propagating version changes between members that only know
// each other second-hand.
func TestRosterGossipStillDiscoversAndUpdates(t *testing.T) {
	r := NewRoster()
	m := Member{Role: RoleMaster, Addr: "10.0.0.9:9100", ID: 7, Version: "v1"}
	r.Merge([]Member{m})
	if r.Len() != 1 {
		t.Fatal("gossip failed to introduce an unknown member")
	}
	m.Version = "v2"
	r.Merge([]Member{m})
	if snap := r.Snapshot(); snap[0].Version != "v2" {
		t.Fatalf("gossip failed to update a gossip-learned member: %+v", snap)
	}
	// Gossip refreshes keep second-hand entries alive.
	time.Sleep(time.Millisecond)
	if n := r.Expire(time.Hour); n != 0 {
		t.Fatalf("fresh gossip entry expired: %d", n)
	}
}
