package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"provex/internal/experiments"
)

// smallScale shrinks every stream so the smoke tests run in seconds.
func smallScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.Messages = 800
	return s
}

// TestRunJSON is the -json smoke: a small Figure 13 run must emit
// one well-formed report that round-trips through encoding/json with
// the schema tag BENCH_PR4.json (and successors) are matched against.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, smallScale(), []string{"13"}, true); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, buf.String())
	}
	if rep.Schema != reportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, reportSchema)
	}
	if rep.GoVersion == "" || rep.GOMAXPROCS < 1 {
		t.Errorf("environment header incomplete: %+v", rep)
	}
	if rep.Scale.Messages != 800 {
		t.Errorf("scale not echoed: %+v", rep.Scale)
	}
	// The three-method pass behind Figure 13 also emits conn-breakdown.
	if len(rep.Figures) != 2 || rep.Figures[0].Name != "fig13" {
		t.Fatalf("figures = %+v", rep.Figures)
	}
	fig := rep.Figures[0]
	if len(fig.Tables) == 0 || len(fig.Tables[0].Rows) == 0 {
		t.Fatalf("figure carries no table rows: %+v", fig)
	}
	if rep.ElapsedSec <= 0 {
		t.Errorf("elapsed_sec = %v", rep.ElapsedSec)
	}
}

// TestRunText: the default text mode still renders tables, not JSON.
func TestRunText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, smallScale(), []string{"13"}, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "provbench: scale") {
		t.Errorf("text header missing:\n%s", out)
	}
	if strings.Contains(out, `"schema"`) {
		t.Error("text mode emitted JSON")
	}
}
