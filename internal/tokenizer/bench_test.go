package tokenizer

import (
	"testing"

	"provex/internal/termdict"
)

// Benchmark corpus: message texts shaped like the generator's output —
// short, hashtag- and URL-bearing, with the Zipfian word repetition the
// term dictionary exploits.
var benchTexts = []string{
	"Lester getting an ovation as he walks off #redsox",
	"breaking tsunami warning issued for samoa coast http://bit.ly/3xyz #tsunami",
	"watching the game tonight with friends, yankees winning again",
	"RT @amaliebenjamin: Lester getting an ovation as he walks off #redsox",
	"new mainframe session announced at the partner conference #cics #ibm http://tinyurl.com/q8abc",
	"so classy, the way it should be done",
	"quake reported off the coast, rescue teams heading out #samoa",
	"this is just noise lol omg haha nothing to see here",
}

// BenchmarkKeywordsMixed measures the full ingest-side keyword
// extraction over a mixed corpus — the dominant cost of the prepare
// stage. (BenchmarkKeywords in tokenizer_test.go covers the single
// long-text case of the lookup-only string path.)
func BenchmarkKeywordsMixed(b *testing.B) {
	b.ReportAllocs()
	dst := make([]termdict.ID, 0, 64)
	for i := 0; i < b.N; i++ {
		AppendKeywords(dst, benchTexts[i%len(benchTexts)])
	}
}

// BenchmarkTokenize isolates the raw tokenisation pass.
func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(benchTexts[i%len(benchTexts)])
	}
}
