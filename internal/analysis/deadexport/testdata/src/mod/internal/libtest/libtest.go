// Package libtest is a test-helper package, exempt from the check.
package libtest

// Helper has no reference, but its package's name ends in "test".
func Helper() {}
