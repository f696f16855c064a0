package analyzers

import (
	"go/ast"
	"go/types"

	"provex/internal/analysis"
)

// fsxMutatingFuncs are the package-level os functions that create,
// mutate, or destroy filesystem state. Read-only calls (os.Open,
// os.ReadFile, os.Stat) are deliberately absent: crash-safety is a
// property of writes.
var fsxMutatingFuncs = map[string]bool{
	"Create":    true,
	"OpenFile":  true,
	"Rename":    true,
	"Remove":    true,
	"RemoveAll": true,
	"WriteFile": true,
	"Truncate":  true,
	"Mkdir":     true,
	"MkdirAll":  true,
	"Link":      true,
	"Symlink":   true,
}

// fsxMutatingMethods are the *os.File methods that write. Read/Close/
// Seek/Name on a file opened elsewhere are allowed — a handle that
// only reads cannot tear the on-disk image.
var fsxMutatingMethods = map[string]bool{
	"Write":       true,
	"WriteAt":     true,
	"WriteString": true,
	"ReadFrom":    true,
	"Sync":        true,
	"Truncate":    true,
	"Chmod":       true,
}

// FsxDiscipline enforces the crash-safety boundary PR 2 established:
// every filesystem mutation must flow through internal/fsx so the
// fault-injection filesystems (FaultFS torn writes, MemFS.Crash) and
// the crash-torture test exercise it.
var FsxDiscipline = &analysis.Analyzer{
	Name: "fsxdiscipline",
	Doc: `raw os file mutation outside the internal/fsx boundary

All file writes, renames, and removals must go through an fsx.FS so
fault injection (FaultFS) and crash simulation (MemFS.Crash) cover
them; a raw os.OpenFile is a durability bug the crash-torture test can
never catch. The boundary:

  - internal/fsx itself is exempt (it is the boundary);
  - _test.go files are exempt (fixtures and scratch dirs are fine);
  - cmd/ binaries may use os for flags, stdout, and os.Open-style
    reads, but file *writes* — including report or dataset output that
    later feeds the store via ingest — go through fsx (fsx.OS{} costs
    one line) or carry a //provlint:ignore fsxdiscipline <reason>
    stating why the bytes can never reach the durability layer.`,
	Run: runFsxDiscipline,
}

func runFsxDiscipline(pass *analysis.Pass) error {
	if pkgPathMatches(pass.Pkg.Path(), "internal/fsx") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if recvPkg, recvType := recvTypeName(fn); recvType != "" {
				if recvPkg == "os" && recvType == "File" && fsxMutatingMethods[fn.Name()] &&
					!isStdStream(pass.TypesInfo, call) {
					pass.Reportf(call.Pos(),
						"(*os.File).%s bypasses the fsx fault-injection boundary; open the file through an fsx.FS",
						fn.Name())
				}
				return true
			}
			if funcPkgPath(fn) == "os" && fsxMutatingFuncs[fn.Name()] {
				pass.Reportf(call.Pos(),
					"os.%s bypasses the fsx fault-injection boundary; use an fsx.FS (fsx.OS{} in production code)",
					fn.Name())
			}
			return true
		})
	}
	return nil
}

// isStdStream reports whether the method call's receiver is literally
// os.Stdout/os.Stderr/os.Stdin: writing to the process streams is not
// filesystem state and is always allowed.
func isStdStream(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[recv.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false
	}
	switch obj.Name() {
	case "Stdout", "Stderr", "Stdin":
		return true
	}
	return false
}
