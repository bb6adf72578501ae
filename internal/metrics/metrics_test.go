package metrics

import (
	"testing"
	"time"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
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
	if s.Min() != 1*time.Millisecond || s.Max() != 5*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryObserveAfterPercentile(t *testing.T) {
	var s Summary
	s.Observe(2 * time.Millisecond)
	_ = s.Percentile(50)
	s.Observe(1 * time.Millisecond) // must re-sort lazily
	if s.Min() != 1*time.Millisecond {
		t.Fatalf("Min after late observe = %v", s.Min())
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Observe(time.Millisecond)
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
