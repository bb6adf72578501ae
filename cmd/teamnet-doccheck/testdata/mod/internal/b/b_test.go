package b_test

import (
	"testing"

	"example.com/fixture/internal/a"
)

func TestOther(t *testing.T) {
	if a.OtherTest() != 4 {
		t.Fatal("OtherTest")
	}
}
