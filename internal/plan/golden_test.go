package plan

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blossomtree/internal/xmltree"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenCase is one EXPLAIN rendering pinned against a golden file.
// Analyze goldens execute the plan first; they stay deterministic
// because wall-clock timing is only rendered when Options.Analyze
// enables it, which these cases do not.
type goldenCase struct {
	name     string
	query    string
	strategy Strategy
	analyze  bool
	doc      string // the document queried; sample when empty
}

// addressesDoc is shaped like the d2 address document: one addresses
// element holding every address, each with its zip_code and country_id,
// so that the first witness of d2.Q2's predicates marks the only outer
// item and the rest of each inner scan is skipped.
const addressesDoc = `<root><addresses>
  <address><zip_code/><country_id/></address>
  <address><zip_code/><country_id/></address>
  <address><zip_code/><country_id/></address>
  <address><zip_code/><country_id/></address>
  <address><zip_code/><country_id/></address>
</addresses></root>`

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "pipelined_explain", query: "//a[//c]//b", strategy: Pipelined},
		{name: "bounded_nl_explain", query: "//a//c", strategy: BoundedNL},
		{name: "twig_explain", query: "//a[b]//c", strategy: Twig},
		{name: "cost_based_explain", query: "//a//b//c", strategy: Auto},
		{name: "pipelined_analyze", query: "//a[//c]//b", strategy: Pipelined, analyze: true},
		{name: "bounded_nl_analyze", query: "//a//c", strategy: BoundedNL, analyze: true},
		{name: "twig_analyze", query: "//a[b]//c", strategy: Twig, analyze: true},
		// d2.Q2's shape: both predicate inners are unread, so each runs as
		// a semi-join that takes one witness and skips its scan past the
		// addresses element — out act=1, the other postings skipped.
		{name: "pipelined_semi_analyze", query: "//addresses[//zip_code][//country_id]", strategy: Pipelined,
			analyze: true, doc: addressesDoc},
	}
}

func TestExplainGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			text := tc.doc
			if text == "" {
				text = sample
			}
			doc := parse(t, text)
			opts := Options{Strategy: tc.strategy, Stats: xmltree.ComputeStats(doc)}
			pl, err := buildIndexed(compilePath(t, tc.query), doc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.analyze {
				if _, err := pl.Execute(); err != nil {
					t.Fatal(err)
				}
			} else if err := pl.Prepare(); err != nil {
				t.Fatal(err)
			}
			got := pl.Explain() + pl.ExplainCosts() + pl.ExplainTree(tc.analyze)

			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/plan -run TestExplainGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN output drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
