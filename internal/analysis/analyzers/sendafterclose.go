package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"provex/internal/analysis"
)

// SendAfterClose covers the two channel-lifecycle bugs that turn into
// runtime panics or goroutine leaks:
//
//  1. A send (or second close) lexically reachable after close(ch) in
//     the same function: send on a closed channel panics, close of a
//     closed channel panics. The tracking is linear per block;
//     a close inside a branch does not poison the code after the
//     branch (it may not have executed).
//  2. A go-launched closure running `for { ... }` with no termination
//     signal — no return, break, goto, select, channel operation, or
//     panic anywhere in the loop. Such a goroutine can never be
//     stopped: it leaks until process exit, and in a server that
//     restarts engines (reopen, resync) each generation adds one.
var SendAfterClose = &analysis.Analyzer{
	Name: "sendafterclose",
	Doc: `channel send reachable after close; goroutine loops with no exit

Flags ch <- v and close(ch) statements that follow a close(ch) in the
same function body (a guaranteed panic if reached), and go func()
bodies that loop forever with no termination signal (a goroutine
leak). for-range over a channel is a valid exit — it ends when the
channel closes — as is any select, receive, return, break, or panic.
_test.go files are exempt.`,
	Run: runSendAfterClose,
}

func runSendAfterClose(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c := &sacChecker{pass: pass}
					c.block(n.Body.List, map[string]token.Pos{})
				}
			case *ast.FuncLit:
				c := &sacChecker{pass: pass}
				c.block(n.Body.List, map[string]token.Pos{})
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineLifecycle(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// sacChecker tracks the set of channels closed so far, keyed by
// lexical identity, through one function body in statement order.
type sacChecker struct {
	pass *analysis.Pass
}

func copyClosed(m map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// closedChanKey returns the lexical key of the channel a builtin
// close(ch) call closes, or "".
func closedChanKey(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	if len(call.Args) != 1 {
		return ""
	}
	return exprKey(call.Args[0])
}

func (c *sacChecker) block(list []ast.Stmt, closed map[string]token.Pos) {
	for _, s := range list {
		c.stmt(s, closed)
	}
}

func (c *sacChecker) stmt(s ast.Stmt, closed map[string]token.Pos) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key := closedChanKey(c.pass.TypesInfo, call); key != "" {
				if prev, dup := closed[key]; dup {
					c.pass.Reportf(call.Pos(), "close of %s after it was already closed at %s; closing a closed channel panics", key, c.pass.Position(prev))
				}
				closed[key] = call.Pos()
			}
		}
	case *ast.SendStmt:
		if key := exprKey(s.Chan); key != "" {
			if pos, ok := closed[key]; ok {
				c.pass.Reportf(s.Pos(), "send on %s after close at %s; send on a closed channel panics", key, c.pass.Position(pos))
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, closed)
		}
		c.block(s.Body.List, copyClosed(closed))
		if s.Else != nil {
			c.stmt(s.Else, copyClosed(closed))
		}
	case *ast.ForStmt:
		c.block(s.Body.List, copyClosed(closed))
	case *ast.RangeStmt:
		c.block(s.Body.List, copyClosed(closed))
	case *ast.SwitchStmt:
		for _, cc := range s.Body.List {
			c.block(cc.(*ast.CaseClause).Body, copyClosed(closed))
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			c.block(cc.(*ast.CaseClause).Body, copyClosed(closed))
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CommClause)
			inner := copyClosed(closed)
			if cl.Comm != nil {
				c.stmt(cl.Comm, inner)
			}
			c.block(cl.Body, inner)
		}
	case *ast.BlockStmt:
		c.block(s.List, closed)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, closed)
		// Defer/go bodies run at another time; sends inside them are
		// not lexically "after" the close in execution order this
		// linear pass can reason about, and nested closures are
		// analyzed on their own when the outer Inspect reaches them.
	}
}

// checkGoroutineLifecycle flags `for {}` loops inside a go-launched
// closure that contain no way out.
func checkGoroutineLifecycle(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			// Nested closures get their own GoStmt check if spawned.
			return false
		}
		f, ok := n.(*ast.ForStmt)
		if !ok || f.Cond != nil || f.Init != nil || f.Post != nil {
			return true
		}
		if !loopCanTerminate(pass.TypesInfo, f.Body) {
			pass.Reportf(f.Pos(), "goroutine loops forever with no termination signal (no return, break, goto, select, channel operation, or panic); it leaks until process exit")
		}
		return false // the outermost unbounded loop is the finding
	})
}

// loopCanTerminate reports whether body contains any construct that
// can end the enclosing `for {}`: return, break, goto, select, a
// channel receive or send, range over a channel, or a panic call.
func loopCanTerminate(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested closure does not end this loop
		case *ast.ReturnStmt, *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
