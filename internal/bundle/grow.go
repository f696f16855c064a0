package bundle

// Growth of a bundle's arrays: its node slice and, from PruneMinNodes
// up, the index's shared single-node list, its table of lists and each
// list. Power-law bundle sizes (the paper's Fig. 6(a)) leave most of
// these arrays short and the few long ones still growing, so append's
// doubling would hold up to half of every array empty. Here an array
// full at n elements moves to capFor(n+1, size) instead: the smallest
// step of classBytes that fits, every step an allocator size class —
// the summary index's capFor is the model. A slice's capacity is then a
// function of its length, whatever order of appends built it, and the
// heap it holds is that capacity.

// classBytes are the sizes a grown array takes: allocator size classes,
// about four a doubling (fewer below 128 bytes, where an array of a few
// elements would otherwise move at every append). Past the last step an
// array grows by a quarter of a power of two, in whole 8 KiB pages.
var classBytes = [...]int{
	8, 16, 32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512,
	640, 768, 896, 1024, 1280, 1536, 1792, 2048, 2688, 3072, 4096,
	4864, 6144, 8192, 10240, 12288, 14336, 16384, 20480, 24576, 28672, 32768,
}

// capFor is the capacity of an array of n ≥ 1 elements of size bytes:
// the elements the smallest classBytes step holding n of them fits.
func capFor(n, size int) int {
	need := n * size
	for _, c := range classBytes {
		if c >= need && c >= size {
			return c / size
		}
	}
	step := classBytes[len(classBytes)-1] / 4
	for step*8 < need {
		step *= 2
	}
	return (need + step - 1) / step * step / size
}

// appendGrown appends v to s, which holds elements of size bytes,
// moving s to an array of capFor(len(s)+1, size) when it is full.
func appendGrown[T any](s []T, v T, size int) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), capFor(len(s)+1, size))
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// makeFor returns an empty slice with the capacity appendGrown gives n
// elements of size bytes, nil for none.
func makeFor[T any](n, size int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, capFor(n, size))
}
