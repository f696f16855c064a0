package analyzers

import (
	"go/ast"
	"go/types"

	"provex/internal/analysis"
)

// WgBalance checks the three sync.WaitGroup shapes that deadlock or
// leak in practice:
//
//  1. Add inside the goroutine it counts — Wait can observe the group
//     at zero before the goroutine has run, and returns early.
//  2. A goroutine spawned immediately after Add that can never reach
//     Done (no Done call and the WaitGroup never escapes into it):
//     Wait hangs forever. When Done is present but not deferred, a
//     panic on the goroutine's path skips it — same hang, rarer
//     schedule.
//  3. Wait while holding a mutex that a spawned goroutine also locks:
//     the goroutine blocks on the mutex, Wait blocks on the
//     goroutine — a deadlock the race detector cannot see.
//
// The analysis is intra-procedural and lexical, mirroring the repo's
// fan-out idiom (shard rounds): Add before go, deferred
// Done first in the goroutine, Wait with nothing held.
var WgBalance = &analysis.Analyzer{
	Name: "wgbalance",
	Doc: `sync.WaitGroup Add/Done/Wait pairing errors

Flags Add calls inside the goroutine they count, spawned goroutines
that cannot reach Done (or reach it only on the non-panic path
because it is not deferred), and Wait called while holding a mutex
that a spawned worker goroutine also needs. All three are hangs or
early returns that only bite under unlucky schedules; the static
shape is checkable on every build. _test.go files are exempt.`,
	Run: runWgBalance,
}

func runWgBalance(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		// Check 1: Add inside a go-launched closure.
		walkWithStack([]*ast.File{f}, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key, op := wgOp(pass.TypesInfo, call)
			if key == "" || op != "Add" {
				return true
			}
			for i := len(stack) - 1; i >= 2; i-- {
				lit, ok := stack[i].(*ast.FuncLit)
				if !ok {
					continue
				}
				parentCall, ok := stack[i-1].(*ast.CallExpr)
				if ok && parentCall.Fun == lit {
					if _, ok := stack[i-2].(*ast.GoStmt); ok {
						pass.Reportf(call.Pos(), "%s.Add inside the goroutine it counts; call Add before the go statement so Wait cannot pass before the goroutine starts", key)
					}
				}
				break // innermost closure decides
			}
			return true
		})
		// Checks 2 and 3 are per-function.
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkSpawnedDone(pass, fd)
			checkWaitUnderLock(pass, fd)
			return true
		})
	}
	return nil
}

// checkSpawnedDone inspects every `wg.Add(n); go func() {...}()` pair:
// the spawned closure must either call wg.Done (preferably deferred)
// or receive the WaitGroup so a helper can.
func checkSpawnedDone(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		for i := 1; i < len(list); i++ {
			gs, ok := list[i].(*ast.GoStmt)
			if !ok {
				continue
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				continue
			}
			es, ok := list[i-1].(*ast.ExprStmt)
			if !ok {
				continue
			}
			addCall, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			key, op := wgOp(pass.TypesInfo, addCall)
			if key == "" || op != "Add" {
				continue
			}
			wgObj := receiverObj(pass.TypesInfo, addCall)
			checkGoroutineDone(pass, gs, lit, key, wgObj)
		}
		return true
	})
}

// receiverObj resolves the object the method call's receiver
// expression names: the Ident's object, or the field a selector
// resolves to. nil when the receiver has no single object identity.
func receiverObj(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok {
			return s.Obj()
		}
	}
	return nil
}

// checkGoroutineDone verifies one spawned closure against the Add that
// precedes it.
func checkGoroutineDone(pass *analysis.Pass, gs *ast.GoStmt, lit *ast.FuncLit, key string, wgObj types.Object) {
	var (
		doneCalls     []*ast.CallExpr
		deferredDones int
		referencesWg  bool
	)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if wgObj != nil && pass.TypesInfo.Uses[n] == wgObj {
				referencesWg = true
			}
		case *ast.DeferStmt:
			if k, op := wgOp(pass.TypesInfo, n.Call); k == key && op == "Done" {
				deferredDones++
			}
		case *ast.CallExpr:
			if k, op := wgOp(pass.TypesInfo, n); k == key && op == "Done" {
				doneCalls = append(doneCalls, n)
			}
		}
		return true
	})
	switch {
	case len(doneCalls) == 0 && !referencesWg:
		pass.Reportf(gs.Pos(), "goroutine counted by %s.Add never calls %s.Done and the WaitGroup does not escape into it; %s.Wait will hang", key, key, key)
	case len(doneCalls) > 0 && deferredDones == 0:
		pass.Reportf(doneCalls[0].Pos(), "%s.Done in a spawned goroutine is not deferred; a panic on this path skips it and %s.Wait hangs", key, key)
	}
}

// checkWaitUnderLock simulates the function's lock set in source
// order (skipping closures) and flags Wait calls made while holding a
// mutex that some goroutine spawned in the same function also locks.
func checkWaitUnderLock(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Locks taken inside go-launched closures.
	goroutineLocks := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if key, op := lockOp(pass.TypesInfo, call); key != "" && (op == "Lock" || op == "RLock") {
					goroutineLocks[key] = true
				}
			}
			return true
		})
		return true
	})
	if len(goroutineLocks) == 0 {
		return
	}
	// Linear lock-set simulation over the function body proper.
	held := make(map[string]bool)
	var walk func(n ast.Node) bool
	inDefer := false
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // goroutine/closure bodies simulated separately
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held until return.
			saved := inDefer
			inDefer = true
			ast.Inspect(n.Call, walk)
			inDefer = saved
			return false
		case *ast.CallExpr:
			if key, op := lockOp(pass.TypesInfo, n); key != "" {
				if inDefer {
					return true
				}
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return true
			}
			if key, op := wgOp(pass.TypesInfo, n); key != "" && op == "Wait" {
				for lock := range held {
					if goroutineLocks[lock] {
						pass.Reportf(n.Pos(), "%s.Wait while holding %s, which a goroutine spawned in this function also locks; if that goroutine has not passed its critical section this deadlocks", key, lock)
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}
