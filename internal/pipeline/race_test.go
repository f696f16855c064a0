//go:build race

package pipeline

// The race detector's instrumentation allocates on its own account, so
// allocation counters are read but not held to their budgets under it.
func init() { raceBuild = true }
