package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"provex/internal/analysis"
)

// instrumentTypes are the metrics instruments that only become visible
// in /metrics through a Registry.Register* call (PR 3's register-then-
// use discipline: registration hands back the bare instrument so the
// hot path never touches the registry — which also means nothing at
// scrape time can discover an instrument that was never handed in).
var instrumentTypes = map[string]bool{
	"Counter":    true,
	"Gauge":      true,
	"StageTimer": true,
	"Histogram":  true,
}

// instrumentWriteMethods are the write-side methods of an instrument.
// Being the receiver of one is not evidence of registration — quite
// the opposite: an instrument that is incremented but never registered
// is exactly the silent /metrics hole this analyzer exists to catch.
// Read-side methods (Value, Quantile, Snapshot, String, ...) DO count
// as a sink: a histogram whose quantiles are printed in a report is a
// legitimate local aggregate, not a lost series.
var instrumentWriteMethods = map[string]bool{
	"Inc": true, "Add": true, "Set": true, "Observe": true, "Time": true,
}

// MetricsReg flags metrics instruments (declared fields/vars or bare
// constructions) that never flow anywhere that could register them.
var MetricsReg = &analysis.Analyzer{
	Name: "metricsreg",
	Doc: `metrics instrument never reaches a Registry.Register* call

Every metrics.Counter/Gauge/StageTimer/Histogram must be handed to a
Registry (RegisterCounter, RegisterHistogram, ...) or obtained from a
registering constructor (Registry.Counter, Registry.Gauge,
Registry.DurationHistogram); otherwise its series silently never
appears in /metrics. The analyzer tracks each instrument-typed struct
field, package variable, and local construction within the package: an
instrument whose only uses are its own Inc/Add/Set/Observe calls — or
that is never used at all — is reported. Passing the instrument to any
other function, storing it elsewhere, or assigning it from a non-
constructor call counts as escaping to a possible registration site
(the analysis is intra-package and deliberately errs quiet on escape).
_test.go files are exempt; so is internal/metrics itself.`,
	Run: runMetricsReg,
}

// containsInstrument unwraps pointers/arrays/slices/maps and reports
// whether the element is one of the instrument types.
func containsInstrument(t types.Type) (string, bool) {
	for {
		t = types.Unalias(t)
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			n, _ := t.(*types.Named)
			if n == nil || n.Obj().Pkg() == nil {
				return "", false
			}
			if instrumentTypes[n.Obj().Name()] && pkgPathMatches(n.Obj().Pkg().Path(), "internal/metrics") {
				return "metrics." + n.Obj().Name(), true
			}
			return "", false
		}
	}
}

// isBareConstruction reports whether e builds an instrument without
// registering it: metrics.NewHistogram(...)/NewPow2Histogram(...),
// new(metrics.Counter), &metrics.Counter{} or the bare composite
// literal. Calls to anything else (notably Registry.Counter and
// friends, which register internally) are NOT bare.
func isBareConstruction(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if lit, ok := x.X.(*ast.CompositeLit); ok {
				_, ok := containsInstrument(info.TypeOf(lit))
				return ok
			}
		}
	case *ast.CompositeLit:
		_, ok := containsInstrument(info.TypeOf(x))
		return ok
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) == 1 {
				_, ok := containsInstrument(info.TypeOf(x.Args[0]))
				return ok
			}
		}
		fn := callee(info, x)
		if fn == nil {
			return false
		}
		if _, recvType := recvTypeName(fn); recvType != "" {
			return false
		}
		if pkgPathMatches(funcPkgPath(fn), "internal/metrics") &&
			(fn.Name() == "NewHistogram" || fn.Name() == "NewPow2Histogram") {
			return true
		}
	}
	return false
}

type candidate struct {
	pos      token.Pos
	typeName string // "metrics.Counter" etc.
	what     string // "field", "variable", "constructed value"
}

func runMetricsReg(pass *analysis.Pass) error {
	if pkgPathMatches(pass.Pkg.Path(), "internal/metrics") {
		return nil
	}
	info := pass.TypesInfo

	candidates := make(map[types.Object]*candidate)
	salvaged := make(map[types.Object]bool)

	// Pass 1: collect candidates — instrument-typed struct fields and
	// variables declared in this package's non-test files. A variable
	// initialised from a non-construction expression (a call such as
	// Registry.Counter, a field read, a parameter) is not a candidate:
	// the value's registration story belongs to its origin.
	declCandidate := func(id *ast.Ident, what string, init ast.Expr) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		tn, ok := containsInstrument(obj.Type())
		if !ok {
			return
		}
		if init != nil && !isBareConstruction(info, init) {
			return
		}
		candidates[obj] = &candidate{pos: id.Pos(), typeName: tn, what: what}
	}
	walkWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.StructType:
			for _, field := range x.Fields.List {
				for _, name := range field.Names {
					declCandidate(name, "field", nil)
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 1 && len(x.Names) > 1 {
				// var a, b = f(): origin is a call, not a construction.
				return true
			}
			for i, name := range x.Names {
				var init ast.Expr
				if i < len(x.Values) {
					init = x.Values[i]
				}
				declCandidate(name, "variable", init)
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil {
						declCandidate(id, "variable", x.Rhs[i])
					}
				}
			}
		}
		return true
	})

	// Pass 2: classify every use. Anything other than (a) calling the
	// instrument's own methods and (b) re-assigning it from a bare
	// construction counts as potentially reaching a registration.
	walkWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || candidates[obj] == nil || salvaged[obj] {
			return true
		}

		// Climb from the ident to the largest expression denoting (or
		// containing only element/field access of) this object.
		cur := ast.Node(id)
		i := len(stack)
		climb := func() ast.Node {
			if i == 0 {
				return nil
			}
			i--
			return stack[i]
		}
		parent := climb()
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.Sel == id {
			cur = sel
			parent = climb()
		}
		for {
			switch p := parent.(type) {
			case *ast.IndexExpr:
				if p.X == cur {
					cur = p
					parent = climb()
					continue
				}
			case *ast.ParenExpr:
				cur = p
				parent = climb()
				continue
			}
			break
		}

		switch p := parent.(type) {
		case *ast.SelectorExpr:
			// cur.Method or cur.Field — if this is a call of one of
			// the instrument's own methods, it does not salvage.
			if p.X == cur {
				if call, ok := peek(stack, i).(*ast.CallExpr); ok && call.Fun == p && instrumentWriteMethods[p.Sel.Name] {
					return true
				}
			}
		case *ast.KeyValueExpr:
			if p.Key == cur {
				// Composite-literal field key: candidate iff the value
				// is a bare construction.
				if !isBareConstruction(info, p.Value) {
					salvaged[obj] = true
				}
				return true
			}
		case *ast.AssignStmt:
			for j, lhs := range p.Lhs {
				if lhs != cur {
					continue
				}
				if len(p.Lhs) == len(p.Rhs) {
					if !isBareConstruction(info, p.Rhs[j]) {
						salvaged[obj] = true
					}
					return true
				}
				// Multi-value assignment from a call: origin unknown.
				salvaged[obj] = true
				return true
			}
		}
		// Any other appearance: call argument, address-of into a
		// Register* call, stored elsewhere, returned, ranged over...
		salvaged[obj] = true
		return true
	})

	for obj, c := range candidates {
		if salvaged[obj] {
			continue
		}
		pass.Reportf(c.pos, "%s %s %q is never registered: its series will be missing from /metrics (pass it to a Registry.Register* call or build it via Registry.%s)",
			c.typeName, c.what, obj.Name(), registrySuggestion(c.typeName))
	}
	return nil
}

func registrySuggestion(typeName string) string {
	switch typeName {
	case "metrics.Counter":
		return "Counter"
	case "metrics.Gauge":
		return "Gauge"
	default:
		return "Register*"
	}
}

func peek(stack []ast.Node, i int) ast.Node {
	if i == 0 {
		return nil
	}
	return stack[i-1]
}
