package plan

import (
	"strings"
	"testing"

	"blossomtree/internal/xmlgen"
)

// TestWarmRunFormatsNoNotes: a cached plan's run records its EXPLAIN
// notes and operator details as formats and arguments, and only EXPLAIN
// formats them; nor does it build a vertex label to look up a
// cardinality hint when there are none. A warm pipelined run of a
// paper-flat query, d5's Q6 (four scans under three semi-joins), made
// 294 allocations when it did both: 24 went to formatting and 39 to
// labels. Its EXPLAIN still renders every note.
func TestWarmRunFormatsNoNotes(t *testing.T) {
	doc, err := xmlgen.Generate("d5", xmlgen.Config{Seed: 1, TargetNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := buildIndexed(compilePath(t, `//proceedings[//editor][//year][//url]`), doc, Options{Strategy: Pipelined})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Plan {
		p := tmpl.Fork(Options{})
		if _, err := p.Execute(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if n := testing.AllocsPerRun(20, func() { run() }); n > 240 {
		t.Errorf("a warm run made %.0f allocations, want at most 240", n)
	}
	ex := run().Explain()
	for _, note := range []string{
		`NoK1 anchors via tag index "proceedings"`,
		`link proceedings($result)#1.1//NoK2: pipelined semi-join`,
	} {
		if !strings.Contains(ex, note) {
			t.Errorf("EXPLAIN lacks %q:\n%s", note, ex)
		}
	}
}
