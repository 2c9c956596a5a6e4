package xmlgen

import (
	"testing"

	"blossomtree/internal/naveval"
	"blossomtree/internal/xpath"
)

func TestSuiteShape(t *testing.T) {
	wantCats := []Category{HC, HB, MC, MB, LC, LB}
	for _, in := range Catalog {
		qs := Suite(in.ID)
		if len(qs) != 6 {
			t.Fatalf("%s has %d queries, want 6", in.ID, len(qs))
		}
		for i, q := range qs {
			if q.Category != wantCats[i] {
				t.Errorf("%s %s category = %s, want %s", in.ID, q.ID, q.Category, wantCats[i])
			}
			if _, err := xpath.Parse(q.Text); err != nil {
				t.Errorf("%s %s does not parse: %v", in.ID, q.ID, err)
			}
		}
	}
	if Suite("nope") != nil {
		t.Error("unknown dataset should have no suite")
	}
}

// suiteCounts returns the navigational result count of each suite query
// on the dataset generated at the scale the paper-fidelity tests use.
func suiteCounts(t *testing.T, id string) []int {
	t.Helper()
	doc, err := Generate(id, Config{Seed: 42, TargetNodes: 12000})
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, q := range Suite(id) {
		res, err := naveval.EvalPath(naveval.SingleDoc(doc), nil, xpath.MustParse(q.Text), nil)
		if err != nil {
			t.Fatalf("%s %s: %v", id, q.ID, err)
		}
		counts = append(counts, len(res))
	}
	return counts
}

// TestSuiteQueriesHaveMatches: every suite query returns at least one
// result on its generated dataset — otherwise the measured cells are
// vacuous.
func TestSuiteQueriesHaveMatches(t *testing.T) {
	for _, in := range Catalog {
		counts := suiteCounts(t, in.ID)
		for i, q := range Suite(in.ID) {
			if counts[i] == 0 {
				t.Errorf("%s %s (%s) has no matches on the generated data", in.ID, q.ID, q.Text)
			}
		}
	}
}

// TestSuiteSelectivityOrdering: within each dataset the low-selectivity
// chain returns more results than the high-selectivity one (the Table 2
// class structure). The moderate class is not ordered against them: its
// queries return a different element, so the counts are not comparable.
func TestSuiteSelectivityOrdering(t *testing.T) {
	for _, in := range Catalog {
		counts := suiteCounts(t, in.ID)
		if hc, lc := counts[0], counts[4]; hc >= lc {
			t.Errorf("%s: hc query returns %d ≥ lc query's %d", in.ID, hc, lc)
		}
	}
}
