package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 {
		t.Fatal("OnlyTests")
	}
}
