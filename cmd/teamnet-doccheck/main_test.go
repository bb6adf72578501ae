package main

import (
	"reflect"
	"strings"
	"testing"
)

// The fixture module under testdata/mod has one declaration per case of
// the reachability rule; see the doc comments in its internal/a/a.go.
const fixture = "testdata/mod"

func TestUnreachableFlagsDeadCodeAndItsHelpers(t *testing.T) {
	flagged, problems, err := unreachable(fixture, map[string]string{"a.Baseline": "kept on purpose"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:11: a.helper",
		"internal/a/a.go:14: a.OnlyOwnTest",
		"internal/a/a.go:8: a.Unused",
	}
	if !reflect.DeepEqual(flagged, want) {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(flagged, "\n"), strings.Join(want, "\n"))
	}
	if len(problems) != 0 {
		t.Errorf("problems with a valid allowlist: %v", problems)
	}
}

func TestUnreachableWithoutAllowlistFlagsTheEntryAndItsHelper(t *testing.T) {
	flagged, _, err := unreachable(fixture, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.Baseline", "a.baselineHelper"} {
		found := false
		for _, f := range flagged {
			found = found || strings.HasSuffix(f, ": "+name)
		}
		if !found {
			t.Errorf("%s not flagged without its allowlist entry: %v", name, flagged)
		}
	}
}

func TestUnreachableRejectsBadAllowlistEntries(t *testing.T) {
	_, problems, err := unreachable(fixture, map[string]string{
		"a.Baseline": "",         // no reason
		"a.Used":     "has one",  // stale: main calls it
		"a.Gone":     "was here", // stale: no such declaration
		"a.Unused":   "fine",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist entry a.Baseline gives no reason",
		"allowlist entry a.Gone names no declaration",
		"allowlist entry a.Used has a caller; delete the entry",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}
