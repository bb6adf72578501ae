package a

import "testing"

func TestOnlyOwn(t *testing.T) {
	if OnlyOwnTest() != 3 {
		t.Fatal("OnlyOwnTest")
	}
}
