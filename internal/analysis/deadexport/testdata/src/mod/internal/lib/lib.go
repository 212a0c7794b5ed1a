// Package lib holds one exported symbol per case of the deadexport check.
package lib

// OnlyTests is called by lib_test.go alone, so it is flagged.
func OnlyTests() int { return 1 }

// FromTool is referenced only by the nested module in tool/, so it is
// not flagged.
func FromTool() int { return 2 }

// Generic is referenced only through tool/'s instantiation, which the
// check maps back to its origin, so it is not flagged.
func Generic[T any](v T) T { return v }

// SelfOnly is referenced only by its own body, so it is flagged.
func SelfOnly(n int) int {
	if n <= 0 {
		return 0
	}
	return SelfOnly(n - 1)
}

// Node is named only by its own methods, which are part of its
// declaration, so it is flagged.
type Node struct{ next *Node }

// Next returns the following node.
func (n *Node) Next() *Node { return n.next }

// Ignored has no reference at all, and its finding is suppressed.
//
//df:ignore deadexport — the suppression case of the fixture
func Ignored() int { return 3 }
