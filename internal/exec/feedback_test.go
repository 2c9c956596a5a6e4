package exec

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// skewedDoc builds a corpus the static cost model misestimates: parts
// of which only one in skewEvery carries the <bolt/> child the probe
// query filters on. The result's estimate is card(subpart) — thousands —
// while only the subparts of a handful of parts match. nested puts a
// part in every part, making the document recursive; a flat document's
// subparts have two element children each, which price a subpart
// region high enough that Auto starts boltQuery at PL.
func skewedDoc(t *testing.T, parts, skewEvery int, nested bool) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<assembly>")
	for i := 0; i < parts; i++ {
		sb.WriteString("<part>")
		if i%skewEvery == 0 {
			sb.WriteString("<bolt/>")
		}
		for j := 0; j < 12; j++ {
			if nested {
				sb.WriteString("<subpart/>")
			} else {
				sb.WriteString("<subpart><nut/><washer/></subpart>")
			}
		}
		if nested {
			sb.WriteString("<part><subpart/></part>")
		}
		sb.WriteString("</part>")
	}
	sb.WriteString("</assembly>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// replans reads the process-wide replan counter.
func replans() int64 { return obs.Default.Snapshot()[obs.MetricFeedbackReplans] }

// boltQuery is a genuine misestimate on a flat skewedDoc. Its $p//subpart
// edge is optional, so TwigStack cannot run it. The model prices the
// part[bolt] outer at every part, so Auto picks PL; the first run sees
// one part in skewEvery carry a bolt, and the replan, pricing NL's
// bounded inner visits with that count, moves to NL.
const boltQuery = `for $p in doc("assembly")//part[bolt] return <r>{ $p//subpart }</r>`

// boltEngine returns an engine holding a flat skewedDoc of 200 parts
// with a bolt in every skewEvery-th; 1 is the well-estimated control.
func boltEngine(t *testing.T, skewEvery int) *Engine {
	t.Helper()
	e := New()
	e.Add("assembly", skewedDoc(t, 200, skewEvery, false))
	return e
}

// TestFeedbackReplanFromHistory pins the whole loop end to end: the
// cold run's observations drift from the template's estimates, the
// first cache hit replans onto a different strategy with the observed
// cardinalities, and the result and EXPLAIN surface the replan. The
// well-estimated control — a bolt in every part — must run the same
// number of times without replanning.
func TestFeedbackReplanFromHistory(t *testing.T) {
	const q = boltQuery
	for _, c := range []struct {
		skewEvery  int
		wantReplan bool
	}{
		{40, true},
		{1, false},
	} {
		e := boltEngine(t, c.skewEvery)
		cold, err := e.EvalOptions(q, plan.Options{Strategy: plan.Auto})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Plan == nil {
			t.Fatal("cold run routed to navigational fallback")
		}
		coldStrategy := cold.Plan.Strategy
		if cold.Replanned {
			t.Fatal("cold run claims to be replanned")
		}
		want := Canonical(cold)

		before := replans()
		replanRun := -1
		var last *Result
		for i := 0; i < 12; i++ {
			res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Auto})
			if err != nil {
				t.Fatalf("%s run %d: %v", q, i, err)
			}
			if got := Canonical(res); got != want {
				t.Fatalf("%s run %d: answer drifted from the cold run's\n%s--- cold ---\n%s", q, i, got, want)
			}
			if res.Replanned && replanRun < 0 {
				replanRun = i
				if res.Drift < replanDrift {
					t.Errorf("replan drift = %v, want >= %v", res.Drift, replanDrift)
				}
			}
			last = res
		}
		after := replans()

		if !c.wantReplan {
			if replanRun >= 0 || after != before {
				t.Errorf("control %s replanned on run %d (drift %.2f); its estimates match its actuals",
					q, replanRun, last.Drift)
			}
			if last.Plan.Strategy != coldStrategy {
				t.Errorf("control %s moved from %s to %s", q, coldStrategy, last.Plan.Strategy)
			}
			continue
		}

		if replanRun != 0 {
			t.Fatalf("first replanned run = %d, want the first cache hit (0)", replanRun)
		}
		if coldStrategy != plan.Pipelined || last.Plan.Strategy != plan.BoundedNL {
			t.Errorf("strategy went %s -> %s, want PL -> NL", coldStrategy, last.Plan.Strategy)
		}
		if !last.Replanned {
			t.Error("post-replan runs lost the replanned mark")
		}
		if after != before+1 {
			t.Errorf("feedback_replans_total moved %d -> %d, want exactly one replan", before, after)
		}

		// EXPLAIN renders the template the next run executes: the
		// replanned one, with the cost model's hint note.
		expl, err := e.Explain(q, plan.Options{Strategy: plan.Auto})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(expl, "cardinality hints applied to the cost model") ||
			!strings.HasPrefix(expl, "plan strategy: "+last.Plan.Strategy.String()+"\n") {
			t.Errorf("EXPLAIN does not render the replanned %s template:\n%s", last.Plan.Strategy, expl)
		}
	}
}

// TestFeedbackConverges: a misestimated query replans once, at its first
// cache hit, and never again on the same snapshot; an Add gives a new
// snapshot version, a new template and exactly one new decision. The
// well-estimated control never replans.
func TestFeedbackConverges(t *testing.T) {
	const runs = 100
	e := New()
	e.Add("skew", skewedDoc(t, 200, 40, true))

	// drive runs q runs times on the current snapshot and returns how far
	// the replan counter moved. Run 0 compiles; every later run is a
	// cache hit and must report Replanned exactly when wantReplan.
	drive := func(q string, wantReplan bool) int64 {
		t.Helper()
		before := replans()
		for i := 0; i < runs; i++ {
			res, err := e.Eval(q)
			if err != nil {
				t.Fatalf("%s run %d: %v", q, i, err)
			}
			if res.Cached != (i > 0) {
				t.Fatalf("%s run %d: Cached = %v", q, i, res.Cached)
			}
			if want := wantReplan && i > 0; res.Replanned != want {
				t.Fatalf("%s run %d: Replanned = %v, want %v", q, i, res.Replanned, want)
			}
		}
		return replans() - before
	}

	const misestimated, control = "//part[bolt]//subpart", "//part//subpart"
	if d := drive(misestimated, true); d != 1 {
		t.Errorf("%d runs moved feedback_replans_total by %d, want 1", runs, d)
	}
	if d := drive(control, false); d != 0 {
		t.Errorf("the well-estimated control moved feedback_replans_total by %d", d)
	}

	e.Add("other", mustParseDoc(t, "<other/>"))
	if d := drive(misestimated, true); d != 1 {
		t.Errorf("after an Add, %d runs moved feedback_replans_total by %d, want 1", runs, d)
	}
}

// TestFeedbackReplanKeepsTwig: a drifting TS plan replans and stays on
// TS, where a misread observation once moved it to NL.
//   - d4.Q2 on a generated treebank: a handful of rows against an
//     estimate of thousands of NN. The observation is keyed to the kept
//     NN vertex, whose cardinality the estimate took. Keyed to the twig
//     root, the rows priced the VP scan at a handful and the replan
//     moved to NL, which at the benchmark's scale (7 rows) runs d4.Q2 in
//     3.6 ms against TS's 1.5 ms (Intel Xeon, 2 vCPUs).
//   - //part[bolt] on the recursive skewedDoc emits one part in 100. A
//     hint is an output count, but an index scan or a TwigStack stream
//     reads every posting of its tag. Priced at the hint, the part
//     stream made NL look cheap, and NL runs it in 590 µs against TS's
//     42 µs (1000 parts, Intel Xeon, 2 vCPUs).
func TestFeedbackReplanKeepsTwig(t *testing.T) {
	for _, c := range []struct {
		name, q string
		doc     *xmltree.Document
	}{
		{"d4.Q2", "//VP[VP]//VP[PP]/NP[PP]/NN", xmlgen.MustGenerate("d4", xmlgen.Config{Seed: 1, TargetNodes: 20000})},
		{"part-bolt", "//part[bolt]", skewedDoc(t, 1000, 100, true)},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			e.Add("doc", c.doc)
			var res *Result
			for i := 0; i < 3; i++ {
				var err error
				if res, err = e.Eval(c.q); err != nil {
					t.Fatal(err)
				}
				if res.Plan.Strategy != plan.Twig {
					t.Fatalf("run %d: strategy %s (replanned=%v), want TS\n%s",
						i, res.Plan.Strategy, res.Replanned, res.Plan.ExplainCosts())
				}
			}
			if !res.Replanned {
				t.Errorf("%s did not replan; its first run drifts from its estimates", c.q)
			}
		})
	}
}

// TestFeedbackFanOutDecidesPerDocument: an all-documents fan-out pins
// each document to its own snapshot version, so each document's
// template learns from its own first run. On the skewed assembly the
// probe flips the PL plan; on the uniform one — every part carries a
// bolt — it is well estimated and must never replan, however many
// evaluations of the same query text the other document contributes.
// The per-document facts are read from the fan-out record's children;
// the worker pool interleaves the two documents in any order, which
// decided which document replanned when history was keyed by query text.
func TestFeedbackFanOutDecidesPerDocument(t *testing.T) {
	const q = boltQuery
	e := New()
	e.Add("skew", skewedDoc(t, 200, 40, false))
	e.Add("uniform", skewedDoc(t, 200, 1, false))

	var cold map[string]string
	var last []*obs.QueryRecord
	for call := 0; call < 40; call++ {
		res, err := e.EvalAllDocs(q, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if call == 0 {
			cold = map[string]string{}
			for _, c := range res.Children {
				cold[c.QueryID] = c.Strategy
			}
		}
		last = res.Children
	}
	for _, c := range last {
		switch {
		case strings.HasSuffix(c.QueryID, "-skew"):
			if !c.Replanned || c.Strategy == cold[c.QueryID] {
				t.Errorf("skew: replanned=%v strategy %s (cold %s); its own first run calls for a flip",
					c.Replanned, c.Strategy, cold[c.QueryID])
			}
		case strings.HasSuffix(c.QueryID, "-uniform"):
			if c.Replanned {
				t.Errorf("uniform replanned (drift %.2f) although its own estimates hold", c.Drift)
			}
		default:
			t.Errorf("unexpected child record %s", c.QueryID)
		}
	}
}

// rareFrequentDoc builds a non-recursive corpus for //rare//f: every
// rare region holds inside f's, flagged ones carrying a <flag/> child,
// and is followed by outside f's that no rare contains. A last rare
// closes the document so the inner scan is consumed to its end.
func rareFrequentDoc(t *testing.T, rares, inside, flagged, outside int) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<lib>")
	for i := 0; i < rares; i++ {
		sb.WriteString("<rare><shelf>")
		for j := 0; j < inside; j++ {
			if j < flagged {
				sb.WriteString("<f><flag/></f>")
			} else {
				sb.WriteString("<f/>")
			}
		}
		sb.WriteString("</shelf></rare>")
		if i < rares-1 {
			sb.WriteString(strings.Repeat("<f/>", outside))
		}
	}
	sb.WriteString("</lib>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSkippingScanDoesNotArmReplan: the pipelined join skips the inner
// scan over postings no outer contains, so the scan emits far fewer
// instances than its vertex has matches. That is a property of the
// join, not a misestimate of the vertex: the observation stays the
// vertex's cardinality (emitted + skipped) and the drift stays under the
// threshold, so the first run would not arm a replan. (The model sends
// this indexed query to TS, so the PL run is forced and its observation
// checked directly.) A vertex that really is misestimated — few of the
// f's a rare holds carry the flag the query asks for — still drifts and
// still replans.
func TestSkippingScanDoesNotArmReplan(t *testing.T) {
	const runs = 24

	const q = "//rare//f"
	e := New()
	e.Add("lib", rareFrequentDoc(t, 4, 3, 0, 200))
	res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Pipelined})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 12 || res.Plan.Strategy != plan.Pipelined {
		t.Fatalf("%d nodes via %s, want 12 via PL", len(res.Nodes), res.Plan.Strategy)
	}
	var skipped int64
	for st := []*obs.OpStats{res.Plan.StatsTree()}; len(st) > 0; st = append(st[1:], st[0].Children...) {
		skipped += st[0].Skipped()
	}
	if skipped < 500 {
		t.Fatalf("the plan skipped %d postings; the fixture should be skip-heavy", skipped)
	}
	probe := &compiled{learns: true}
	probe.record(res.Plan.StatsTree())
	if _, drift, armed := probe.replanHints(); armed {
		t.Fatalf("a skipping scan drifted %.2f from its estimates; it must stay under %v", drift, replanDrift)
	}

	// Same shape, inner vertex genuinely misestimated: 1 f in 30 inside
	// a rare has the flag, the estimate is the tag count.
	const qFlag = "//rare//f[flag]"
	e = New()
	e.Add("lib", rareFrequentDoc(t, 6, 30, 1, 4))
	replanned := false
	for i := 0; i < runs && !replanned; i++ {
		res, err := e.EvalOptions(qFlag, plan.Options{Strategy: plan.Auto})
		if err != nil {
			t.Fatalf("misestimated run %d: %v", i, err)
		}
		if len(res.Nodes) != 6 {
			t.Fatalf("misestimated run %d: %d nodes, want 6", i, len(res.Nodes))
		}
		replanned = res.Replanned
	}
	if !replanned {
		t.Error("a misestimated inner vertex never replanned")
	}
}

// TestFeedbackForcedStrategyObservesButNeverReplans: the replan
// decision is only taken for Auto evaluations — a forced strategy keeps
// its plan however far its estimates drift.
func TestFeedbackForcedStrategyObservesButNeverReplans(t *testing.T) {
	const q = "//part[bolt]//subpart"
	e := New()
	e.Add("skew", skewedDoc(t, 200, 40, true))

	before := replans()
	for i := 0; i < 6; i++ {
		res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Twig})
		if err != nil {
			t.Fatal(err)
		}
		if res.Replanned || res.Plan.Strategy != plan.Twig {
			t.Fatalf("run %d: forced Twig evaluation replanned=%v strategy=%s", i, res.Replanned, res.Plan.Strategy)
		}
	}
	if after := replans(); after != before {
		t.Errorf("forced runs moved feedback_replans_total %d -> %d", before, after)
	}
}

// TestFeedbackStressConcurrentReplans hammers the feedback loop under
// the race detector: concurrent queriers (whose cache hits race to take
// the same template's replan decision), catalog writers bumping the
// engine snapshot, and EXPLAIN readers peeking at the cache — the
// interleavings the engine's plan cache must survive.
func TestFeedbackStressConcurrentReplans(t *testing.T) {
	const q = "//part[bolt]//subpart"
	e := New()
	e.Add("skew", skewedDoc(t, 120, 24, true))

	// Establish the expected count before the racers start (the count
	// is stable: the writer adds unrelated documents).
	res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Auto})
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Nodes)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Auto})
				if err != nil {
					t.Errorf("querier: %v", err)
					return
				}
				if len(res.Nodes) != want {
					t.Errorf("querier: %d nodes, want %d", len(res.Nodes), want)
					return
				}
			}
		}()
	}

	wg.Add(2)
	go func() { // catalog writer: snapshot bumps invalidate cached templates
		defer wg.Done()
		for i := 0; i < 20; i++ {
			doc, err := xmltree.ParseString(fmt.Sprintf("<extra n=\"%d\"/>", i))
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			e.Add(fmt.Sprintf("extra-%d", i), doc)
		}
	}()
	go func() { // readers: EXPLAIN races the writers and the replans
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := e.Explain(q, plan.Options{Strategy: plan.Auto}); err != nil {
				t.Errorf("explain: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestMergedScanBudget: a pipelined plan's scans charge each scanned
// node against the node budget, so the budget aborts at its first excess
// node and the partial stats report exactly what was scanned.
func TestMergedScanBudget(t *testing.T) {
	e := New()
	e.Add("lib", mustParseDoc(t, "<lib>"+strings.Repeat("<book><author><last/></author></book>", 500)+"</lib>"))
	const q = "//book[author]//last"

	opts := plan.Options{Strategy: plan.Pipelined}
	res, err := e.EvalOptions(q, opts)
	if err != nil || len(res.Nodes) != 500 {
		t.Fatalf("unbudgeted: err %v", err)
	}

	opts.Budget = gov.Budget{MaxNodes: 50}
	_, err = e.EvalOptions(q, opts)
	if !errors.Is(err, gov.ErrBudgetExceeded) || !strings.Contains(err.Error(), "scanned 51 nodes (budget 50)") {
		t.Fatalf("err = %v, want the node budget to abort at 51 nodes", err)
	}
	st, ok := gov.StatsOf(err)
	if !ok || st.TotalScanned() != 51 {
		t.Errorf("partial stats scanned %d nodes (ok=%v), want 51", st.TotalScanned(), ok)
	}
}
