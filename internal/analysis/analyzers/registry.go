// Package analyzers holds the provlint analyzer suite. Each analyzer
// encodes one contract this repo's earlier PRs established at runtime
// and promotes it to a check every go test of the module runs;
// registry.go is the single list the module's TestLint, the meta-test,
// and the docs all key off.
package analyzers

import "provex/internal/analysis"

// All returns every provlint analyzer, in stable order. The first
// four date from PR 5 (filesystem, durability, metrics and allocation
// contracts); the concurrency three extend the same machinery to the
// lock discipline and goroutine lifecycles the sharded engine and the
// replication layer rest on. Atomics need no analyzer: the module's
// TestTypedAtomicsOnly keeps every atomic a typed one, which plain
// code cannot touch.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		FsxDiscipline,
		DurabilityErr,
		MetricsReg,
		HotPathAlloc,
		LockGuard,
		WgBalance,
		SendAfterClose,
	}
}
