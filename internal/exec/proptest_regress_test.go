package exec

import (
	"strings"
	"testing"

	"blossomtree/internal/plan"
	"blossomtree/internal/proptest"
	"blossomtree/internal/xmltree"
)

// TestHarnessRegressions replays the minimized findings of the
// randomized differential harness (proptest.Regressions) across the
// executor's strategy variants against the navigational oracle. The
// harness's own TestRegressions runs the same list cold and warm,
// TwigStack and the pipelined matcher included.
func TestHarnessRegressions(t *testing.T) {
	for _, tc := range proptest.Regressions {
		t.Run(tc.Name, func(t *testing.T) {
			doc, err := xmltree.Parse(strings.NewReader(tc.Doc))
			if err != nil {
				t.Fatalf("parse doc: %v", err)
			}
			e := New()
			e.Add("d", doc)
			oracle, err := e.EvalOptions(tc.Query, plan.Options{Strategy: plan.Navigational})
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			want := Canonical(oracle)
			for _, v := range []struct {
				name string
				opts plan.Options
			}{
				{"auto", plan.Options{}},
				{"bounded-nl", plan.Options{Strategy: plan.BoundedNL}},
			} {
				res, err := e.EvalOptions(tc.Query, v.opts)
				if err != nil {
					t.Errorf("variant %s: %v", v.name, err)
					continue
				}
				if got := Canonical(res); got != want {
					t.Errorf("variant %s disagrees with oracle\n--- got ---\n%s--- want ---\n%s", v.name, got, want)
				}
			}
		})
	}
}
