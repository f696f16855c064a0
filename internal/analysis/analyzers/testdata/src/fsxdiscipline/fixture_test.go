// Test files are exempt from every analyzer: the loader parses them for
// their directives only, so raw os here carries no want comments and
// must produce no diagnostics.
package fixture

import "os"

func helperUsedInTestsOnly(name string) error {
	return os.WriteFile(name, []byte("scratch"), 0o644)
}
