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
	"blossomtree/internal/xmltree"
)

// skewedDoc builds a corpus the static cost model misestimates: parts
// nested in parts (recursive, so Auto picks the twig plan) where only
// one part in skewEvery carries the <bolt/> child the probe query
// filters on. The twig root's estimate is card(part) — thousands —
// while only a handful of parts match.
func skewedDoc(t *testing.T, parts, skewEvery int) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<assembly>")
	for i := 0; i < parts; i++ {
		sb.WriteString("<part>")
		if i%skewEvery == 0 {
			sb.WriteString("<bolt/>")
		}
		for j := 0; j < 12; j++ {
			sb.WriteString("<subpart/>")
		}
		sb.WriteString("<part><subpart/></part></part>")
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

// TestFeedbackReplanFromHistory pins the whole loop end to end: the
// cold run's observations drift from the template's estimates, the
// first cache hit replans onto a different strategy with the observed
// cardinalities, and the result and EXPLAIN surface the replan. The
// well-estimated control on the same corpus — every part matches — must
// run the same number of times without replanning.
func TestFeedbackReplanFromHistory(t *testing.T) {
	e := New()
	e.Add("skew", skewedDoc(t, 1000, 200))

	for _, c := range []struct {
		q          string
		wantReplan bool
	}{
		{"//part[bolt]//subpart", true},
		{"//part//subpart", false},
	} {
		q := c.q
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
		want := cold.Nodes

		before := replans()
		replanRun := -1
		var last *Result
		for i := 0; i < 12; i++ {
			res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Auto})
			if err != nil {
				t.Fatalf("%s run %d: %v", q, i, err)
			}
			if len(res.Nodes) != len(want) {
				t.Fatalf("%s run %d: %d nodes, want %d", q, i, len(res.Nodes), len(want))
			}
			if res.Replanned && replanRun < 0 {
				replanRun = i
				if res.FeedbackDrift < replanDrift {
					t.Errorf("replan drift = %v, want >= %v", res.FeedbackDrift, replanDrift)
				}
			}
			last = res
		}
		after := replans()

		if !c.wantReplan {
			if replanRun >= 0 || after != before {
				t.Errorf("control %s replanned on run %d (drift %.2f); its estimates match its actuals",
					q, replanRun, last.FeedbackDrift)
			}
			if last.Plan.Strategy != coldStrategy {
				t.Errorf("control %s moved from %s to %s", q, coldStrategy, last.Plan.Strategy)
			}
			continue
		}

		if replanRun != 0 {
			t.Fatalf("first replanned run = %d, want the first cache hit (0)", replanRun)
		}
		if last.Plan.Strategy == coldStrategy {
			t.Errorf("warm strategy %s did not flip from cold %s", last.Plan.Strategy, coldStrategy)
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
	e.Add("skew", skewedDoc(t, 200, 40))

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

// TestFeedbackFanOutDecidesPerDocument: an all-documents fan-out pins
// each document to its own snapshot version, so each document's
// template learns from its own first run. On the skewed document the
// probe flips the twig plan; on the flat one — every part carries a
// bolt — it is well estimated and must never replan, however many
// evaluations of the same query text the other document contributes.
// One worker keeps the order of evaluations fixed: when history was
// keyed by query text, that order decided which document replanned.
func TestFeedbackFanOutDecidesPerDocument(t *testing.T) {
	const q = "//part[bolt]//subpart"
	e := New()
	e.Add("skew", skewedDoc(t, 1000, 200))
	e.Add("flat", skewedDoc(t, 1000, 1))

	var cold map[string]plan.Strategy
	var last []DocResult
	for call := 0; call < 40; call++ {
		results, err := e.EvalAllDocs(q, plan.Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("call %d, %s: %v", call, r.URI, r.Err)
			}
		}
		if call == 0 {
			cold = map[string]plan.Strategy{}
			for _, r := range results {
				cold[r.URI] = r.Result.Plan.Strategy
			}
		}
		last = results
	}
	for _, r := range last {
		switch r.URI {
		case "skew":
			if !r.Result.Replanned || r.Result.Plan.Strategy == cold["skew"] {
				t.Errorf("skew: replanned=%v strategy %s (cold %s); its own first run calls for a flip",
					r.Result.Replanned, r.Result.Plan.Strategy, cold["skew"])
			}
		case "flat":
			if r.Result.Replanned {
				t.Errorf("flat replanned (drift %.2f) although its own estimates hold", r.Result.FeedbackDrift)
			}
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
// vertex's cardinality (emitted + skipped), the drift stays under the
// threshold and the plan is never replaced. A vertex that really is
// misestimated — few of the f's a rare holds carry the flag the query
// asks for — still drifts and still replans, skipping or not.
func TestSkippingScanDoesNotArmReplan(t *testing.T) {
	const runs = 24

	const q = "//rare//f"
	e := New()
	e.Add("lib", rareFrequentDoc(t, 4, 3, 0, 200))
	for i := 0; i < runs; i++ {
		res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Auto})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(res.Nodes) != 12 {
			t.Fatalf("run %d: %d nodes, want 12", i, len(res.Nodes))
		}
		if res.Replanned || res.Plan.Strategy != plan.Pipelined {
			t.Fatalf("run %d: replanned=%v strategy=%s; a skipping scan must leave the PL plan alone",
				i, res.Replanned, res.Plan.Strategy)
		}
		if i == 0 {
			var skipped int64
			for st := []*obs.OpStats{res.Plan.StatsTree()}; len(st) > 0; st = append(st[1:], st[0].Children...) {
				skipped += st[0].Skipped()
			}
			if skipped < 500 {
				t.Fatalf("the plan skipped %d postings; the fixture should be skip-heavy", skipped)
			}
		}
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
// decision is only taken for Auto and cost-based evaluations — a
// forced strategy keeps its plan however far its estimates drift.
func TestFeedbackForcedStrategyObservesButNeverReplans(t *testing.T) {
	const q = "//part[bolt]//subpart"
	e := New()
	e.Add("skew", skewedDoc(t, 200, 40))

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
	e.Add("skew", skewedDoc(t, 120, 24))

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

// TestMergedScanBudget: the merged NoK scan is charged like the scans
// it replaces — each visited element against the node budget — so a
// budget that aborts the per-NoK scans aborts the merged one too, with
// the replay scan reporting what the traversal scanned.
func TestMergedScanBudget(t *testing.T) {
	e := NewWithConfig(Config{})
	e.Add("lib", mustParseDoc(t, "<lib>"+strings.Repeat("<book><author><last/></author></book>", 500)+"</lib>"))
	const q = "//book[author]//last"

	for _, merge := range []bool{false, true} {
		opts := plan.Options{Strategy: plan.Pipelined, MergeScans: merge}
		res, err := e.EvalOptions(q, opts)
		if err != nil || len(res.Nodes) != 500 {
			t.Fatalf("merge=%v unbudgeted: err %v", merge, err)
		}

		opts.Budget = gov.Budget{MaxNodes: 50}
		_, err = e.EvalOptions(q, opts)
		if !errors.Is(err, gov.ErrBudgetExceeded) || !strings.Contains(err.Error(), "scanned 51 nodes (budget 50)") {
			t.Fatalf("merge=%v: err = %v, want the node budget to abort at 51 nodes", merge, err)
		}
		st, ok := gov.StatsOf(err)
		if !ok || st.TotalScanned() != 51 {
			t.Errorf("merge=%v: partial stats scanned %d nodes (ok=%v), want 51", merge, st.TotalScanned(), ok)
		}
	}
}
