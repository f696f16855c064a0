package experiments

import "strings"

// Figure is one figure's result set: its tables and, for Fig. 10, the
// rendered provenance trails.
type Figure struct {
	Name   string   `json:"name"`
	Tables []*Table `json:"tables"`
	Trails []string `json:"trails,omitempty"`
}

// Run regenerates the named figures — "6" to "13", "ablations", or
// "all" for every one — in the order cmd/provbench prints them. Every
// figure but Fig. 10 reads one pass over the seed stream, which builds
// only the engines the named figures read; Fig. 10 replays its own
// scripted stream. The connection breakdown comes with any figure of
// the three-method run.
func Run(s Scale, figs ...string) []Figure {
	want := map[string]bool{}
	for _, f := range figs {
		want[f] = true
	}
	wants := func(name string) bool { return want["all"] || want[name] }

	p := &pass{s: s, figs: map[string][]*Table{}}
	if wants("6") {
		p.addFig6()
	}
	if wants("7") || wants("8") || wants("11") || wants("12") || wants("13") {
		p.addThree()
	}
	if wants("9") {
		p.addFig9()
	}
	if wants("ablations") {
		p.addAblations()
	}
	p.run()

	var out []Figure
	for _, name := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "conn-breakdown", "ablations"} {
		tables, ok := p.figs[name]
		switch {
		case name == "fig10" && wants("10"):
			table, trails := fig10(s)
			out = append(out, Figure{Name: name, Tables: []*Table{table}, Trails: trails})
		case ok && (name == "conn-breakdown" || wants(strings.TrimPrefix(name, "fig"))):
			out = append(out, Figure{Name: name, Tables: tables})
		}
	}
	return out
}
