package proptest

import (
	"testing"

	"blossomtree/internal/exec"
	"blossomtree/internal/xmltree"
)

func TestRegressions(t *testing.T) {
	for _, c := range Regressions {
		t.Run(c.Name, func(t *testing.T) {
			doc, err := xmltree.ParseString(c.Doc)
			if err != nil {
				t.Fatal(err)
			}
			e := exec.New()
			e.Add("d", doc)
			runPair(t, e, doc, xmltree.ComputeStats(doc).Recursive, c.Query, 0)
		})
	}
}
