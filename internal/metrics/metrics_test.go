package metrics

import (
	"testing"
	"time"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 || s.Max() != 0 {
		t.Fatal("empty summary not all-zero")
	}
}

func TestSummaryStats(t *testing.T) {
	var s Summary
	for _, ms := range []int{5, 1, 3, 2, 4} {
		s.Observe(time.Duration(ms) * time.Millisecond)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Percentile(50) != 3*time.Millisecond {
		t.Fatalf("p50 = %v", s.Percentile(50))
	}
	if s.Max() != 5*time.Millisecond {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestSummaryObserveAfterPercentile(t *testing.T) {
	var s Summary
	s.Observe(2 * time.Millisecond)
	_ = s.Percentile(50)
	s.Observe(1 * time.Millisecond) // must re-sort lazily
	if got := s.Percentile(50); got != 1*time.Millisecond {
		t.Fatalf("p50 after late observe = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Observe(time.Millisecond)
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
