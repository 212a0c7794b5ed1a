// Package pub re-exports an internal type by alias, as a module's
// public API does.
package pub

import "fixture/internal/lib"

// Public is lib.Public.
type Public = lib.Public
