package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"provex/internal/analysis"
)

// LockGuard enforces `// guarded by <mutex>` field annotations: every
// read or write of an annotated field must happen with the named
// sibling mutex held. The check is intra-procedural and lexical — a
// statement-ordered held-lock set per function, branches analyzed
// with a copy and assumed lock-balanced — which is exactly the
// discipline the repo's own code follows (lock, touch, unlock, or
// defer the unlock). Escape hatches, in order of preference:
//
//   - methods whose name ends in "Locked" (repo convention: the
//     caller already holds the receiver's locks) are skipped;
//   - values freshly constructed in the same function are exempt
//     (constructors publish after initialization);
//   - closures are analyzed with an empty held set — a collector or
//     goroutine body must take the lock itself, which is also how
//     render-time Snapshot collectors behave;
//   - _test.go files are exempt;
//   - //provlint:ignore lockguard <reason> for deliberate exceptions
//     (e.g. reads on a path proven single-goroutine).
var LockGuard = &analysis.Analyzer{
	Name: "lockguard",
	Doc: `access to a // guarded by field without its mutex held

A struct field annotated // guarded by mu may only be read with mu
(or mu.RLock for an RWMutex) held, and only written under the full
Lock. The annotation turns DESIGN.md's prose concurrency contracts
(§2c/§2h/§2i) into a machine-checked invariant: the analyzer tracks
Lock/RLock/Unlock/RUnlock lexically through each function and flags
any access outside the critical section. Freshly-constructed values,
*Locked methods, closures that lock for themselves, and _test.go
files are exempt.`,
	Run: runLockGuard,
}

// guardInfo describes one annotated field's guard.
type guardInfo struct {
	mutexName string // sibling field name, as the annotation spells it
	rw        bool   // guard is a sync.RWMutex (reads may hold RLock)
}

// held-lock modes, ordered by strength.
const (
	heldNone = iota
	heldRead
	heldWrite
)

type heldSet map[string]int

func (h heldSet) copy() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func applyLockOp(held heldSet, key, op string) {
	switch op {
	case "Lock":
		held[key] = heldWrite
	case "RLock":
		if held[key] < heldRead {
			held[key] = heldRead
		}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

func runLockGuard(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				// Convention: fooLocked runs with the caller holding
				// the relevant locks; the call sites are checked.
				continue
			}
			c := &lockguardChecker{
				pass:   pass,
				guards: guards,
				fresh:  freshLocals(pass.TypesInfo, fd.Body),
			}
			c.block(fd.Body.List, heldSet{})
		}
	}
	return nil
}

// collectGuards maps each annotated struct field to its guard, and
// reports annotations that name a missing or non-mutex sibling so a
// typo cannot silently disable the check.
func collectGuards(pass *analysis.Pass) map[*types.Var]guardInfo {
	guards := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				name, ok := fieldGuardAnnotation(field)
				if !ok {
					continue
				}
				rw, found := findSiblingMutex(pass.TypesInfo, st, name)
				if !found {
					pass.Reportf(field.Pos(), "// guarded by %s: no sibling sync.Mutex or sync.RWMutex field named %q in this struct", name, name)
					continue
				}
				for _, id := range field.Names {
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						guards[v] = guardInfo{mutexName: name, rw: rw}
					}
				}
			}
			return true
		})
	}
	return guards
}

// fieldGuardAnnotation scans a field's trailing and doc comments for
// the guarded-by marker.
func fieldGuardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if name, ok := parseGuardedBy(c.Text); ok {
				return name, true
			}
		}
	}
	return "", false
}

// findSiblingMutex locates the named field in the same struct and
// checks it is a sync.Mutex or sync.RWMutex (directly, by pointer, or
// embedded — an embedded mutex is named by its type: "Mutex"
// or "RWMutex").
func findSiblingMutex(info *types.Info, st *ast.StructType, name string) (rw, found bool) {
	for _, field := range st.Fields.List {
		match := false
		for _, id := range field.Names {
			if id.Name == name {
				match = true
			}
		}
		if len(field.Names) == 0 {
			// Embedded field: its name is the type's base name.
			t := field.Type
			if se, ok := t.(*ast.SelectorExpr); ok {
				if se.Sel.Name == name {
					match = true
				}
			} else if id, ok := t.(*ast.Ident); ok && id.Name == name {
				match = true
			}
		}
		if !match {
			continue
		}
		t := info.TypeOf(field.Type)
		if t == nil {
			return false, false
		}
		if isNamedType(t, "sync", "Mutex") {
			return false, true
		}
		if isNamedType(t, "sync", "RWMutex") {
			return true, true
		}
		return false, false
	}
	return false, false
}

type lockguardChecker struct {
	pass   *analysis.Pass
	guards map[*types.Var]guardInfo
	fresh  map[types.Object]bool
}

func (c *lockguardChecker) block(list []ast.Stmt, held heldSet) {
	for _, s := range list {
		c.stmt(s, held)
	}
}

// stmt threads the held-lock set through one statement. Control-flow
// statements analyze their bodies with a copy of the set and are
// assumed lock-balanced: a branch that unlocks must also return or
// re-lock, which matches every critical section in this repo.
func (c *lockguardChecker) stmt(s ast.Stmt, held heldSet) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, op := lockOp(c.pass.TypesInfo, call); key != "" {
				applyLockOp(held, key, op)
				return
			}
		}
		c.expr(s.X, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.expr(r, held)
		}
		for _, l := range s.Lhs {
			c.writeTarget(l, held)
		}
	case *ast.IncDecStmt:
		c.writeTarget(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, held)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if key, _ := lockOp(c.pass.TypesInfo, s.Call); key != "" {
			// defer mu.Unlock() releases at return: the lock stays
			// held for the remainder of this body.
			return
		}
		c.expr(s.Call, held)
	case *ast.GoStmt:
		c.expr(s.Call, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, held)
		}
	case *ast.SendStmt:
		c.expr(s.Chan, held)
		c.expr(s.Value, held)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.expr(s.Cond, held)
		c.block(s.Body.List, held.copy())
		if s.Else != nil {
			c.stmt(s.Else, held.copy())
		}
	case *ast.ForStmt:
		inner := held.copy()
		if s.Init != nil {
			c.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			c.expr(s.Cond, inner)
		}
		c.block(s.Body.List, inner)
		if s.Post != nil {
			c.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		c.expr(s.X, held)
		c.block(s.Body.List, held.copy())
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Tag != nil {
			c.expr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CaseClause)
			inner := held.copy()
			for _, e := range cl.List {
				c.expr(e, inner)
			}
			c.block(cl.Body, inner)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.stmt(s.Assign, held)
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CaseClause)
			c.block(cl.Body, held.copy())
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CommClause)
			inner := held.copy()
			if cl.Comm != nil {
				c.stmt(cl.Comm, inner)
			}
			c.block(cl.Body, inner)
		}
	case *ast.BlockStmt:
		c.block(s.List, held)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held)
	}
}

// expr checks read accesses inside an expression tree.
func (c *lockguardChecker) expr(e ast.Expr, held heldSet) {
	switch e := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		c.access(e, held, false)
		c.expr(e.X, held)
	case *ast.FuncLit:
		// A closure may run on any goroutine (go, defer, collector
		// registration): it gets nothing for free and must take the
		// lock itself.
		c.block(e.Body.List, heldSet{})
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking the address lets the field escape the critical
			// section; demand the write lock.
			c.writeTarget(e.X, held)
			return
		}
		c.expr(e.X, held)
	case *ast.CallExpr:
		c.expr(e.Fun, held)
		for _, a := range e.Args {
			c.expr(a, held)
		}
	case *ast.BinaryExpr:
		c.expr(e.X, held)
		c.expr(e.Y, held)
	case *ast.ParenExpr:
		c.expr(e.X, held)
	case *ast.StarExpr:
		c.expr(e.X, held)
	case *ast.IndexExpr:
		c.expr(e.X, held)
		c.expr(e.Index, held)
	case *ast.IndexListExpr:
		c.expr(e.X, held)
		for _, i := range e.Indices {
			c.expr(i, held)
		}
	case *ast.SliceExpr:
		c.expr(e.X, held)
		c.expr(e.Low, held)
		c.expr(e.High, held)
		c.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		c.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			c.expr(el, held)
		}
	case *ast.KeyValueExpr:
		c.expr(e.Key, held)
		c.expr(e.Value, held)
	}
}

// writeTarget checks an expression in a store position: assignment
// LHS, ++/--, or an address-taken operand. Indexing a guarded
// container field and storing mutates the field.
func (c *lockguardChecker) writeTarget(e ast.Expr, held heldSet) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		c.access(e, held, true)
		c.expr(e.X, held)
	case *ast.IndexExpr:
		c.writeTarget(e.X, held)
		c.expr(e.Index, held)
	case *ast.StarExpr:
		c.expr(e.X, held)
	case *ast.Ident:
		// Plain local/package var: never a guarded field access.
	default:
		c.expr(e, held)
	}
}

// access checks one guarded-field selector against the held set.
func (c *lockguardChecker) access(sel *ast.SelectorExpr, held heldSet, write bool) {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	g, ok := c.guards[v]
	if !ok {
		return
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.fresh[obj] {
			return
		}
	}
	base := exprKey(sel.X)
	if base == "" {
		// A temporary (call result) we cannot tie to any lock
		// acquisition; left to the race detector.
		return
	}
	key := base + "." + g.mutexName
	mode := held[key]
	switch {
	case mode == heldNone:
		verb := "read of"
		if write {
			verb = "write to"
		}
		c.pass.Reportf(sel.Pos(), "%s %s.%s without %s held (field is // guarded by %s)", verb, base, v.Name(), key, g.mutexName)
	case write && mode == heldRead:
		c.pass.Reportf(sel.Pos(), "write to %s.%s under RLock of %s; writes need %s.Lock", base, v.Name(), key, key)
	}
}
