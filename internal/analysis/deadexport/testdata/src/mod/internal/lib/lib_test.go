package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 || (Box{}).OnlyTests() != 5 {
		t.Fatal("OnlyTests")
	}
}
