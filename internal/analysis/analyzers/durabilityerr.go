package analyzers

import (
	"go/ast"
	"go/types"

	"provex/internal/analysis"
)

// durabilityCritical lists the calls whose error return IS the
// durability guarantee: ignoring it converts "the write may fail" into
// "the write silently failed". Each entry is matched by defining
// package (full path or module-relative suffix), receiver type name
// ("" for package-level functions), and method/function name.
type critCall struct {
	pkg    string // matched via pkgPathMatches
	recv   string // receiver type name; "" = package-level func
	name   string
	advice string
}

var durabilityCritical = []critCall{
	{"internal/wal", "Log", "Append", "a dropped WAL append loses the message on crash"},
	{"internal/wal", "Log", "Truncate", "a dropped truncate error can leave a sealed log the next recovery rejects"},
	{"internal/wal", "Log", "Sync", "an unchecked fsync means acknowledged data may not be durable"},
	{"internal/wal", "", "Wipe", "an unchecked wipe can leave stale log files that the next recovery resurrects"},
	{"internal/recfile", "", "Open", "an unchecked open hands back a nil directory and hides a corrupt sealed file"},
	{"internal/recfile", "Dir", "CreateNext", "an unchecked file start leaves appends going to the file the caller believes sealed"},
	{"internal/recfile", "Dir", "Sync", "an unchecked fsync means acknowledged data may not be durable"},
	{"internal/recfile", "Dir", "RemoveBefore", "an unchecked remove leaves sealed files the caller believes gone"},
	{"internal/storage", "Store", "Put", "a dropped Put error silently loses the bundle from the store"},
	{"internal/storage", "Store", "Sync", "an unchecked store sync means flushed bundles may not be durable"},
	{"internal/storage", "Store", "Compact", "an unchecked compaction error can strand dead segments"},
	{"internal/core", "Engine", "WriteCheckpoint", "a failed checkpoint write must abort the checkpoint, not seal garbage"},
	{"internal/core", "Engine", "SaveCheckpoint", "a failed checkpoint write must abort the checkpoint, not seal garbage"},
	{"internal/pipeline", "Durable", "Checkpoint", "an unchecked checkpoint failure leaves recovery pinned to the previous checkpoint"},
	{"internal/shard", "ledger", "append", "a dropped ledger append loses the barrier cut; recovery replays from a stale coordinate"},
	{"internal/shard", "ledger", "reset", "an unchecked ledger reset can leave a stale cut that recovery trusts over newer shard state"},
	{"internal/shard", "", "writeManifest", "an unchecked manifest write breaks the atomic commit point of the sharded checkpoint"},
	{"internal/repl", "Replica", "installCheckpoint", "an unchecked checkpoint install leaves the replica on its old base state while reporting a new one"},
	{"internal/repl", "Replica", "resync", "an unchecked resync failure leaves the replica serving stale state while reporting progress"},
	{"internal/fsx", "File", "Write", "an unchecked write can tear the file image"},
	{"internal/fsx", "File", "WriteAt", "an unchecked write can tear the file image"},
	{"internal/fsx", "File", "Sync", "an unchecked fsync is the canonical lost-durability bug"},
	{"internal/fsx", "File", "Truncate", "an unchecked truncate can leave a torn tail that replay rejects"},
	{"internal/fsx", "FS", "Rename", "an unchecked rename breaks the atomic-checkpoint commit point"},
	{"internal/fsx", "FS", "Remove", "an unchecked remove can resurrect stale state on recovery"},
	{"internal/fsx", "FS", "MkdirAll", "an unchecked mkdir fails every subsequent write in the tree"},
	{"internal/fsx", "", "WriteAtomic", "an unchecked atomic replace means the old file is still the one on disk"},
}

// DurabilityErr flags durability-critical calls whose error result is
// discarded: as a bare expression statement, via `_`, or inside
// go/defer. PR 2's crash-safety argument is that every failure path is
// observed and either retried or latched; a single dropped error
// re-opens the silent-loss hole the WAL exists to close.
var DurabilityErr = &analysis.Analyzer{
	Name: "durabilityerr",
	Doc: `discarded error from a durability-critical call

Errors from wal.Append/Truncate/Sync, storage.Put/Sync/Compact,
checkpoint writes, and fsx write/fsync/rename calls must be checked.
These errors are the crash-safety contract: the WAL+checkpoint
recovery proof (DESIGN.md §2d) assumes every failed write is observed
by the caller. Discarding one with _, a bare statement, or defer means
an injected fault in testing — or a real ENOSPC in production —
vanishes. _test.go files are exempt.`,
	Run: runDurabilityErr,
}

func matchCritical(fn *types.Func) *critCall {
	recvPkg, recvType := recvTypeName(fn)
	for i := range durabilityCritical {
		c := &durabilityCritical[i]
		if c.name != fn.Name() {
			continue
		}
		if c.recv == "" {
			if recvType == "" && pkgPathMatches(funcPkgPath(fn), c.pkg) {
				return c
			}
			continue
		}
		if recvType == c.recv && pkgPathMatches(recvPkg, c.pkg) {
			return c
		}
	}
	return nil
}

// critDiscarded reports the critical callee of call if the call's
// error result is not bound to a usable variable.
func describe(fn *types.Func) string {
	if _, recvType := recvTypeName(fn); recvType != "" {
		return recvType + "." + fn.Name()
	}
	return fn.Name()
}

func runDurabilityErr(pass *analysis.Pass) error {
	report := func(call *ast.CallExpr, how string) {
		fn := callee(pass.TypesInfo, call)
		c := matchCritical(fn)
		if c == nil {
			return
		}
		pass.Reportf(call.Pos(), "error from %s %s: %s", describe(fn), how, c.advice)
	}
	isCritical := func(e ast.Expr) *ast.CallExpr {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn := callee(pass.TypesInfo, call)
		if fn == nil || matchCritical(fn) == nil {
			return nil
		}
		return call
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call := isCritical(stmt.X); call != nil {
					report(call, "is discarded")
				}
			case *ast.GoStmt:
				if call := isCritical(stmt.Call); call != nil {
					report(call, "is discarded by go")
				}
			case *ast.DeferStmt:
				if call := isCritical(stmt.Call); call != nil {
					report(call, "is discarded by defer")
				}
			case *ast.AssignStmt:
				// call as the sole RHS: results map positionally onto
				// the LHS; the error is the last result.
				if len(stmt.Rhs) != 1 {
					return true
				}
				call := isCritical(stmt.Rhs[0])
				if call == nil {
					return true
				}
				sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
				if !ok || sig.Results().Len() == 0 || sig.Results().Len() != len(stmt.Lhs) {
					return true
				}
				last := sig.Results().At(sig.Results().Len() - 1)
				if !types.Identical(last.Type(), types.Universe.Lookup("error").Type()) {
					return true
				}
				if id, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					report(call, "is assigned to _")
				}
			}
			return true
		})
	}
	return nil
}
