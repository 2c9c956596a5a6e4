package plan

import (
	"strings"
	"testing"

	"blossomtree/internal/index"
	"blossomtree/internal/naveval"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

func TestCostModelPrefersTwigOnRecursiveIndexed(t *testing.T) {
	doc := xmlgen.MustGenerate("d1", xmlgen.Config{Seed: 2, TargetNodes: 3000})
	ix := index.Build(doc)
	stats := xmltree.ComputeStats(doc)
	p, err := Build(compilePath(t, `//b1//c2//b1`), doc,
		Options{Strategy: CostBased, Index: ix, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != Twig {
		t.Errorf("strategy = %v, want TS on recursive indexed data\n%s", p.Strategy, p.ExplainCosts())
	}
	ests := p.EstimateCosts()
	if len(ests) != 3 {
		t.Fatalf("estimates = %d", len(ests))
	}
	for _, e := range ests {
		if e.Strategy == Pipelined && e.Sound {
			t.Error("PL must be unsound on recursive data")
		}
	}
}

func TestCostModelPrefersBNLWithoutIndex(t *testing.T) {
	doc := xmlgen.MustGenerate("d1", xmlgen.Config{Seed: 2, TargetNodes: 3000})
	stats := xmltree.ComputeStats(doc)
	p, err := Build(compilePath(t, `//b1//c2//b1`), doc,
		Options{Strategy: CostBased, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != BoundedNL {
		t.Errorf("strategy = %v, want NL (recursive, no index)\n%s", p.Strategy, p.ExplainCosts())
	}
}

func TestCostModelSelectiveIndexFavorsCheapStreams(t *testing.T) {
	// phdthesis-style query: tiny inverted lists → TS streams far
	// cheaper than full scans.
	doc := xmlgen.MustGenerate("d5", xmlgen.Config{Seed: 2, TargetNodes: 8000})
	ix := index.Build(doc)
	stats := xmltree.ComputeStats(doc)
	p, err := Build(compilePath(t, `//phdthesis[//author][//school]`), doc,
		Options{Strategy: CostBased, Index: ix, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != Twig {
		t.Errorf("strategy = %v, want TS for selective streams\n%s", p.Strategy, p.ExplainCosts())
	}
	// The winning estimate must actually be cheapest among sound ones.
	ests := p.EstimateCosts()
	if !ests[0].Sound || ests[0].Strategy != Twig {
		t.Errorf("estimates[0] = %+v", ests[0])
	}
	for _, e := range ests[1:] {
		if e.Sound && e.Cost < ests[0].Cost {
			t.Errorf("ordering broken: %+v cheaper than %+v", e, ests[0])
		}
	}
}

func TestCostModelFallsBackWhenTwigUnsound(t *testing.T) {
	doc := xmlgen.MustGenerate("d2", xmlgen.Config{Seed: 2, TargetNodes: 2000})
	ix := index.Build(doc)
	stats := xmltree.ComputeStats(doc)
	// Positional predicate disables TwigStack.
	p, err := Build(compilePath(t, `//address[2]//zip_code`), doc,
		Options{Strategy: CostBased, Index: ix, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy == Twig {
		t.Errorf("TS chosen despite incompatibility\n%s", p.ExplainCosts())
	}
	found := false
	for _, e := range p.EstimateCosts() {
		if e.Strategy == Twig {
			if e.Sound {
				t.Error("Twig estimate should be unsound")
			}
			if !strings.Contains(e.Detail, "unsound") {
				t.Errorf("detail = %q", e.Detail)
			}
			found = true
		}
	}
	if !found {
		t.Error("no Twig estimate")
	}
}

func TestCostBasedPlansExecuteCorrectly(t *testing.T) {
	for _, id := range []string{"d1", "d2", "d5"} {
		doc := xmlgen.MustGenerate(id, xmlgen.Config{Seed: 4, TargetNodes: 3000})
		ix := index.Build(doc)
		stats := xmltree.ComputeStats(doc)
		queries := map[string]string{
			"d1": `//b1//c2[//c3]//b1`,
			"d2": `//address[//zip_code]//name_of_city`,
			"d5": `//proceedings[//editor]`,
		}
		q := queries[id]
		p, err := Build(compilePath(t, q), doc, Options{Strategy: CostBased, Index: ix, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		ins, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		want, err := naveval.EvalPath(doc, xpath.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(resultNodes(p, ins)); got != len(want) {
			t.Errorf("%s %s via %s: %d results, want %d", id, q, p.Strategy, got, len(want))
		}
	}
}

func TestExplainCosts(t *testing.T) {
	doc := parse(t, sample)
	ix := index.Build(doc)
	p, err := Build(compilePath(t, `//a//c`), doc, Options{Index: ix, Stats: xmltree.ComputeStats(doc)})
	if err != nil {
		t.Fatal(err)
	}
	out := p.ExplainCosts()
	for _, frag := range []string{"cost estimates", "PL", "NL", "TS"} {
		if !strings.Contains(out, frag) {
			t.Errorf("ExplainCosts missing %q:\n%s", frag, out)
		}
	}
}

func TestCardinalityFallbacks(t *testing.T) {
	doc := parse(t, sample)
	stats := xmltree.ComputeStats(doc)
	p, err := Build(compilePath(t, `//a//zzz`), doc, Options{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	// zzz is unknown: with stats but no index the model assumes a
	// uniform share rather than zero or the whole document.
	ests := p.EstimateCosts()
	for _, e := range ests {
		if e.Cost < 0 {
			t.Errorf("negative cost: %+v", e)
		}
	}
	// Wildcard cardinality equals the element count.
	p2, err := Build(compilePath(t, `//a//*`), doc, Options{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if p2.EstimateCosts()[0].Cost <= 0 {
		t.Error("wildcard cost should be positive")
	}
}
