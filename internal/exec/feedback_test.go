package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"blossomtree/internal/feedback"
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

// feedbackEngine returns an engine whose own feedback store runs with
// the test's tightened trigger.
func feedbackEngine(cfg feedback.Config) *Engine {
	e := New()
	e.State().Feedback.SetConfig(cfg)
	return e
}

// TestFeedbackReplanFromHistory pins the whole loop end to end:
// estimates drift from observed actuals, a cache hit replans onto a
// different strategy with history-corrected cardinalities, the result
// and EXPLAIN surface the replan, and the replan is judged a win. The
// well-estimated control on the same corpus — every part matches — must
// run the same number of times without replanning.
func TestFeedbackReplanFromHistory(t *testing.T) {
	// MinSamples well past RingSize so the first replan's judgement
	// completes before the re-arm guard can open again, and the run
	// count below stays under 2×MinSamples so exactly one replan fires.
	e := feedbackEngine(feedback.Config{DriftThreshold: 2, MinSamples: 8, RingSize: 3})
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

		before := obs.Default.Snapshot()[obs.MetricFeedbackReplans]

		// Warm the history past MinSamples, then keep running: the first
		// cache hit at n >= MinSamples must replan, and every post-replan
		// run must return the identical result.
		var replanRun = -1
		var last *Result
		for i := 0; i < 13; i++ {
			res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Auto})
			if err != nil {
				t.Fatalf("%s run %d: %v", q, i, err)
			}
			if len(res.Nodes) != len(want) {
				t.Fatalf("%s run %d: %d nodes, want %d", q, i, len(res.Nodes), len(want))
			}
			if res.Replanned && replanRun < 0 {
				replanRun = i
				if res.FeedbackDrift < 2 {
					t.Errorf("replan drift = %v, want >= threshold 2", res.FeedbackDrift)
				}
			}
			last = res
		}
		after := obs.Default.Snapshot()[obs.MetricFeedbackReplans]

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

		if replanRun < 0 {
			t.Fatal("no run executed a replanned template")
		}
		if last.Plan.Strategy == coldStrategy {
			t.Errorf("warm strategy %s did not flip from cold %s", last.Plan.Strategy, coldStrategy)
		}
		if !last.Replanned {
			t.Error("post-replan runs lost the replanned mark")
		}
		if after <= before {
			t.Errorf("feedback_replans_total did not move (%d -> %d)", before, after)
		}

		// EXPLAIN surfaces the history: the feedback header line with the
		// replanned mark, and the cost model's hint note.
		expl, err := e.Explain(q, plan.Options{Strategy: plan.Auto})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(expl, "feedback: n=") || !strings.Contains(expl, "replanned") {
			t.Errorf("EXPLAIN lacks the feedback header:\n%s", expl)
		}
		if !strings.Contains(expl, "cardinality hints applied to the cost model") {
			t.Errorf("EXPLAIN lacks the hint note:\n%s", expl)
		}

		// The store judged the replan against the pre-replan latency EWMA;
		// the corrected plan scans a fraction of the twig's streams, so it
		// must win.
		sum, ok := e.State().Feedback.Lookup(obs.QueryHash(q))
		if !ok {
			t.Fatal("hash missing from feedback store")
		}
		if !sum.Judged {
			t.Fatalf("replan not judged after %d post-replan runs: %+v", 13-replanRun, sum)
		}
		if !sum.Won {
			t.Errorf("replan judged a loss: %+v", sum)
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
// join, not a misestimate of the vertex: the feedback observation stays
// the vertex's cardinality (emitted + skipped), the drift stays under
// the threshold and the plan is never replaced. A vertex that really
// is misestimated — few of the f's a rare holds carry the flag the
// query asks for — still drifts and still replans, skipping or not.
func TestSkippingScanDoesNotArmReplan(t *testing.T) {
	cfg := feedback.Config{DriftThreshold: 2, MinSamples: 8, RingSize: 3}
	runs := 3 * int(cfg.MinSamples)

	const q = "//rare//f"
	e := feedbackEngine(cfg)
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
	sum, ok := e.State().Feedback.Lookup(obs.QueryHash(q))
	if !ok || sum.N != int64(runs) || sum.Replanned {
		t.Fatalf("history: ok=%v %+v", ok, sum)
	}
	for _, op := range sum.Ops {
		if op.Drift >= cfg.DriftThreshold {
			t.Errorf("op %s: drift %.2fx (est %.0f, observed %.1f) reaches the replan threshold",
				op.Key, op.Drift, op.EstOut, op.ActOut)
		}
	}

	// Same shape, inner vertex genuinely misestimated: 1 f in 30 inside
	// a rare has the flag, the estimate is the tag count.
	const qFlag = "//rare//f[flag]"
	e = feedbackEngine(cfg)
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
		sum, _ := e.State().Feedback.Lookup(obs.QueryHash(qFlag))
		t.Errorf("a misestimated inner vertex never replanned: %+v", sum)
	}
}

// TestFeedbackForcedStrategyObservesButNeverReplans: forced strategies
// contribute history but the replan trigger only fires for Auto and
// cost-based evaluations.
func TestFeedbackForcedStrategyObservesButNeverReplans(t *testing.T) {
	const q = "//part[bolt]//subpart"
	e := feedbackEngine(feedback.Config{DriftThreshold: 2, MinSamples: 2, RingSize: 2})
	e.Add("skew", skewedDoc(t, 200, 40))

	for i := 0; i < 6; i++ {
		res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Twig})
		if err != nil {
			t.Fatal(err)
		}
		if res.Replanned {
			t.Fatalf("run %d: forced Twig evaluation replanned", i)
		}
	}
	sum, ok := e.State().Feedback.Lookup(obs.QueryHash(q))
	if !ok || sum.N != 6 {
		t.Fatalf("forced runs did not observe history: ok=%v sum=%+v", ok, sum)
	}
	if sum.Replanned {
		t.Error("forced runs armed a replan")
	}
}

// TestFeedbackStressConcurrentReplans hammers the feedback loop under
// the race detector: concurrent queriers (whose cache hits race to arm
// the same replan), catalog writers bumping the engine snapshot, and
// readers walking summaries and EXPLAIN — the interleavings the
// engine's store and plan cache must survive.
func TestFeedbackStressConcurrentReplans(t *testing.T) {
	const q = "//part[bolt]//subpart"
	e := feedbackEngine(feedback.Config{DriftThreshold: 2, MinSamples: 2, RingSize: 2})
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
	go func() { // readers: summaries and EXPLAIN race the writers
		defer wg.Done()
		for i := 0; i < 40; i++ {
			e.State().Feedback.Summaries()
			if _, err := e.Explain(q, plan.Options{Strategy: plan.Auto}); err != nil {
				t.Errorf("explain: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
