package main

import (
	"reflect"
	"testing"
)

func TestCheckLinkFixture(t *testing.T) {
	const page = "testdata/index.md"
	links, err := extractLinks(page)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, l := range links {
		got[l.target] = checkLink(page, l)
	}
	want := map[string]string{
		"other.md":                       "",
		"other.md#a-heading":             "",
		"other.md#a-heading-1":           "",
		"#own-section":                   "",
		"https://example.com/missing.md": "",
		"missing.md":                     "target does not exist",
		"other.md#no-such-heading":       "no heading for anchor #no-such-heading in testdata/other.md",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts by target:\n got %q\nwant %q", got, want)
	}
}
