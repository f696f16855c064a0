// Package fixture exercises the //provlint:ignore directive: a
// suppressed violation draws no diagnostic, a directive naming a
// different analyzer does not apply, an unsuppressed twin still fires,
// and a directive that silences nothing, or names no analyzer, is
// itself reported.
package fixture

import "os"

func cleanup(dir string) {
	//provlint:ignore fsxdiscipline scratch-dir cleanup in a fixture; nothing durable lives here
	os.RemoveAll(dir)

	os.RemoveAll(dir) //provlint:ignore fsxdiscipline trailing-comment form is also honoured

	os.RemoveAll(dir) // want `os\.RemoveAll bypasses the fsx fault-injection boundary`

	//provlint:ignore otheranalyzer names no analyzer, so this still fires // want `//provlint:ignore names otheranalyzer, which is no analyzer`
	os.RemoveAll(dir) // want `os\.RemoveAll bypasses the fsx fault-injection boundary`
}

func multi(dir string) error {
	//provlint:ignore fsxdiscipline,durabilityerr comma-separated analyzer list
	os.RemoveAll(dir)

	// A directive only reaches its own line and the next: two lines
	// down is out of range.
	//provlint:ignore fsxdiscipline suppressed line
	os.RemoveAll(dir)
	return os.RemoveAll(dir) // want `os\.RemoveAll bypasses the fsx fault-injection boundary`
}

// A directive over a line with no finding silences nothing: it is
// reported, since it would hide whatever finding later lands there.
// One that names an analyzer that did not run (durabilityerr, above)
// is left alone.
func clean(dir string) string {
	//provlint:ignore fsxdiscipline nothing below bypasses fsx // want `//provlint:ignore fsxdiscipline silences no finding`
	return dir
}
