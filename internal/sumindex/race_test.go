//go:build race

package sumindex_test

// The race detector's runtime allocates on its own terms, so the heap
// TestBytesPerPosting measures is not the one MemBytes models: the ratio
// is read but not held under it.
func init() { raceBuild = true }
