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

// sizer is an interface of the module, so a method named Size is exempt
// wherever it is declared.
type sizer interface{ Size() int }

var _ sizer = Box{}

// Box is referenced by tool/, so it is not flagged; its methods are
// judged one by one.
type Box struct{}

// Used is called by tool/, so it is not flagged.
func (Box) Used() int { return 4 }

// OnlyTests is called by lib_test.go alone, so it is flagged.
func (Box) OnlyTests() int { return 5 }

// Size is named by the sizer interface, so it is not flagged.
func (Box) Size() int { return 6 }

// Quiet has no caller, and its finding is suppressed.
//
//df:ignore deadexport — the suppression case for methods
func (Box) Quiet() int { return 7 }

// Public is aliased by the public package pub, so its methods are
// public API and not flagged.
type Public struct{}

// Exposed has no caller in the module, but pub.Public exposes it.
func (Public) Exposed() int { return 8 }
