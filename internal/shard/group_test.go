package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"blossomtree/internal/exec"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// testDoc builds one synthetic bib document with i+2 books whose prices
// and titles are distinct per document, so differential comparisons
// catch any cross-document mixup.
func testDoc(t *testing.T, i int) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<bib>")
	for b := 0; b < i%3+2; b++ {
		fmt.Fprintf(&sb, `<book year="%d"><title>T%d-%d</title><price>%d</price></book>`,
			1990+i, i, b, 10*(b+1)+i)
	}
	sb.WriteString("</bib>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// loadFixture registers docs on the group and a reference unsharded
// engine until every shard holds at least one document.
func loadFixture(t *testing.T, g *Group, ref *exec.Engine) []string {
	t.Helper()
	var uris []string
	populated := map[int]bool{}
	for i := 0; len(populated) < g.Shards() || len(uris) < 6; i++ {
		if i > 200 {
			t.Fatalf("could not populate all %d shards after %d docs", g.Shards(), i)
		}
		uri := fmt.Sprintf("doc-%d.xml", i)
		doc := testDoc(t, i)
		g.Add(uri, doc)
		si, _ := g.ShardOf(uri)
		populated[si] = true
		if ref != nil {
			ref.Add(uri, doc)
		}
		uris = append(uris, uri)
	}
	return uris
}

var differentialQueries = []string{
	`//book/title`,
	`//book[price<30]/title`,
	`//book[starts-with(@year, "19")]`,
	`//book[position()=1]/price`,
	`for $b in doc("any.xml")//book where $b/price > 15 order by $b/title return $b/title`,
	`for $b in doc("any.xml")//book return <hit>{$b/title}</hit>`,
}

// TestEvalAllDocsDifferential: for every shard count, the scatter-gather
// result is byte-identical (per document, in the same URI order) to the
// unsharded engine's catalog-wide fan-out.
func TestEvalAllDocsDifferential(t *testing.T) {
	for n := 1; n <= 4; n++ {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ref := exec.NewWithConfig(exec.Config{BuildIndexes: true})
			g := New(Config{Shards: n, BuildIndexes: true})
			loadFixture(t, g, ref)
			for _, q := range differentialQueries {
				want, _, err := ref.EvalAllDocs(q, plan.Options{}, 0, 0)
				if err != nil {
					t.Fatalf("unsharded %q: %v", q, err)
				}
				got, deg, err := g.EvalAllDocs(q, plan.Options{}, 0, 0)
				if err != nil {
					t.Fatalf("sharded %q: %v", q, err)
				}
				if deg != nil {
					t.Fatalf("healthy scatter degraded: %+v", deg)
				}
				assertSameDocResults(t, q, want, got)
			}
		})
	}
}

// assertSameDocResults compares two per-document result lists for
// byte-identical canonical forms in identical URI order.
func assertSameDocResults(t *testing.T, q string, want, got []exec.DocResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%q: %d docs sharded vs %d unsharded", q, len(got), len(want))
	}
	for i := range want {
		if want[i].URI != got[i].URI {
			t.Fatalf("%q: doc %d URI %q vs %q (order diverged)", q, i, got[i].URI, want[i].URI)
		}
		we, ge := errString(want[i].Err), errString(got[i].Err)
		if we != ge {
			t.Fatalf("%q [%s]: err %q vs %q", q, want[i].URI, ge, we)
		}
		if want[i].Err != nil {
			continue
		}
		if w, g := exec.Canonical(want[i].Result), exec.Canonical(got[i].Result); w != g {
			t.Errorf("%q [%s]: canonical result diverged\nsharded:   %s\nunsharded: %s", q, want[i].URI, g, w)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEvalRoutesLikeUnsharded: single-document queries against the
// group return exactly what the unsharded engine returns, whichever
// shard owns the document.
func TestEvalRoutesLikeUnsharded(t *testing.T) {
	ref := exec.NewWithConfig(exec.Config{BuildIndexes: true})
	g := New(Config{Shards: 3, BuildIndexes: true})
	uris := loadFixture(t, g, ref)
	for _, uri := range uris {
		q := fmt.Sprintf(`for $b in doc(%q)//book where $b/price > 15 return $b/title`, uri)
		want, err := ref.EvalOptions(q, plan.Options{})
		if err != nil {
			t.Fatalf("unsharded %q: %v", q, err)
		}
		got, err := g.EvalOptions(q, plan.Options{})
		if err != nil {
			t.Fatalf("sharded %q: %v", q, err)
		}
		if w, gs := exec.Canonical(want), exec.Canonical(got); w != gs {
			t.Errorf("%s: canonical diverged\nsharded:   %s\nunsharded: %s", uri, gs, w)
		}
	}
}

// TestRouteErrors: the group rejects what the unsharded engine rejects,
// with actionable messages.
func TestRouteErrors(t *testing.T) {
	g := New(Config{Shards: 2, BuildIndexes: true})
	if _, err := g.EvalOptions(`//book`, plan.Options{}); err == nil || !strings.Contains(err.Error(), "no documents registered") {
		t.Errorf("empty catalog: err = %v", err)
	}

	loadFixture(t, g, nil)
	if _, err := g.EvalOptions(`doc("nope.xml")//book`, plan.Options{}); err == nil || !strings.Contains(err.Error(), "no document registered") {
		t.Errorf("unknown URI: err = %v", err)
	}
	q := `for $x in doc("doc-0.xml")//book, $y in doc("doc-1.xml")//book return $x`
	if _, err := g.EvalOptions(q, plan.Options{}); err == nil || !strings.Contains(err.Error(), "spans multiple documents") {
		t.Errorf("multi-doc query: err = %v", err)
	}

	// A single-document catalog serves any URI (the engine's fallback).
	g1 := New(Config{Shards: 2, BuildIndexes: true})
	g1.Add("only.xml", testDoc(t, 0))
	if _, err := g1.EvalOptions(`doc("whatever.xml")//book`, plan.Options{}); err != nil {
		t.Errorf("single-doc fallback: %v", err)
	}
}

// chaosFixture returns a 3-shard group (every shard populated), its
// reference fault-free scatter result, and the participant list.
func chaosFixture(t *testing.T) (*Group, []exec.DocResult, []int) {
	t.Helper()
	g := New(Config{Shards: 3, BuildIndexes: true, RetryBackoff: time.Millisecond})
	loadFixture(t, g, nil)
	want, deg, err := g.EvalAllDocs(`//book[price<40]/title`, plan.Options{}, 0, 0)
	if err != nil || deg != nil {
		t.Fatalf("fault-free scatter: err=%v deg=%+v", err, deg)
	}
	return g, want, g.populatedShards()
}

// TestChaosScatterRetryRecovers: a transient scatter fault on the
// first, middle, and last shard is absorbed by the single retry — the
// result is byte-identical to the fault-free run and the retry counter
// moves.
func TestChaosScatterRetryRecovers(t *testing.T) {
	g, want, parts := chaosFixture(t)
	if len(parts) != 3 {
		t.Fatalf("participants = %v, want 3 shards", parts)
	}
	for pos, name := range map[int64]string{1: "first", 2: "middle", 3: "last"} {
		t.Run(name, func(t *testing.T) {
			before := obs.Default.Snapshot()
			// fanout=1 serializes the scatter in ascending shard order, so
			// the k-th scatter hit is deterministically shard parts[k-1].
			opts := plan.Options{Fault: fault.New().FailAt(fault.SiteShardScatter, pos, nil)}
			got, deg, err := g.EvalAllDocs(`//book[price<40]/title`, opts, 1, 0)
			if err != nil {
				t.Fatalf("scatter: %v", err)
			}
			if deg != nil {
				t.Fatalf("retry should have absorbed the fault, got degraded %+v", deg)
			}
			assertSameDocResults(t, "chaos-retry", want, got)
			d := obs.Default.Delta(before)
			if d[obs.MetricShardRetries] != 1 {
				t.Errorf("shard_retries_total delta = %d, want 1", d[obs.MetricShardRetries])
			}
			if d[obs.MetricShardFailures] != 1 {
				t.Errorf("shard_failures_total delta = %d, want 1", d[obs.MetricShardFailures])
			}
		})
	}
}

// TestChaosPersistentFailureDegrades: a shard that fails its attempt
// AND its retry degrades out of the gather. The partial result is a
// strict, correctly-ordered subset of the fault-free result, and the
// degradation record names exactly the dead shard.
func TestChaosPersistentFailureDegrades(t *testing.T) {
	g, want, parts := chaosFixture(t)
	for i, si := range parts {
		t.Run(fmt.Sprintf("shard=%d", si), func(t *testing.T) {
			before := obs.Default.Snapshot()
			// Two-hit fault starting at the shard's first attempt (hit i+1
			// under fanout=1): the retry (hit i+2) hits the same wall, and
			// the shards dispatched after it stay healthy.
			opts := plan.Options{Fault: fault.New().FailTimes(fault.SiteShardScatter, int64(i+1), 2, nil)}
			got, deg, err := g.EvalAllDocs(`//book[price<40]/title`, opts, 1, 0)
			if err != nil {
				t.Fatalf("scatter: %v", err)
			}
			if deg == nil {
				t.Fatal("persistent shard failure did not degrade")
			}
			if len(deg.FailedShards) != 1 || deg.FailedShards[0] != si {
				t.Errorf("FailedShards = %v, want [%d]", deg.FailedShards, si)
			}
			if len(deg.Errors) != 1 || deg.Errors[0] == "" {
				t.Errorf("Errors = %v, want one message", deg.Errors)
			}
			assertStrictOrderedSubset(t, g, want, got, si)
			d := obs.Default.Delta(before)
			if d[obs.MetricShardDegraded] != 1 {
				t.Errorf("shard_degraded_total delta = %d, want 1", d[obs.MetricShardDegraded])
			}
			// Both attempts of the dead shard (and the injected-fault retry in
			// between) are visible in the counters.
			if d[obs.MetricShardRetries] != 1 || d[obs.MetricShardFailures] != 2 {
				t.Errorf("retries/failures delta = %d/%d, want 1/2",
					d[obs.MetricShardRetries], d[obs.MetricShardFailures])
			}
		})
	}
}

// assertStrictOrderedSubset checks that got is exactly want minus the
// documents owned by deadShard, in the same relative (URI-sorted)
// order, with surviving documents byte-identical.
func assertStrictOrderedSubset(t *testing.T, g *Group, want, got []exec.DocResult, deadShard int) {
	t.Helper()
	var surviving []exec.DocResult
	for _, dr := range want {
		if si, ok := g.ShardOf(dr.URI); ok && si != deadShard {
			surviving = append(surviving, dr)
		}
	}
	if len(surviving) == len(want) {
		t.Fatalf("shard %d owns no documents; fixture broken", deadShard)
	}
	assertSameDocResults(t, "chaos-degraded", surviving, got)
}

// TestChaosGatherFaultDegrades: a response lost after evaluation (the
// gather fault site) degrades the request without a retry — there is
// nothing left to re-run.
func TestChaosGatherFaultDegrades(t *testing.T) {
	g, want, parts := chaosFixture(t)
	before := obs.Default.Snapshot()
	opts := plan.Options{Fault: fault.New().FailAt(fault.SiteShardGather, 1, nil)}
	got, deg, err := g.EvalAllDocs(`//book[price<40]/title`, opts, 1, 0)
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if deg == nil {
		t.Fatal("lost gather response did not degrade")
	}
	// Under fanout=1 the gather walks outcomes in ascending shard order,
	// so the first gather hit is the first participant.
	if len(deg.FailedShards) != 1 || deg.FailedShards[0] != parts[0] {
		t.Errorf("FailedShards = %v, want [%d]", deg.FailedShards, parts[0])
	}
	assertStrictOrderedSubset(t, g, want, got, parts[0])
	d := obs.Default.Delta(before)
	if d[obs.MetricShardRetries] != 0 {
		t.Errorf("gather fault must not retry, retries delta = %d", d[obs.MetricShardRetries])
	}
}

// TestChaosAllShardsFailed: when every shard is dead the request fails
// outright instead of returning an empty "degraded" success.
func TestChaosAllShardsFailed(t *testing.T) {
	g, _, _ := chaosFixture(t)
	boom := errors.New("rack on fire")
	opts := plan.Options{Fault: fault.New().FailFrom(fault.SiteShardScatter, 1, boom)}
	got, deg, err := g.EvalAllDocs(`//book/title`, opts, 1, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if got != nil || deg != nil {
		t.Errorf("total failure returned results/degradation: %v %+v", got, deg)
	}
}

// TestScatterBudgetSplit: the request's node budget is divided across
// the shards; a budget the catalog cannot fit in aborts every shard and
// surfaces as a budget error, while a generous one passes untouched.
func TestScatterBudgetSplit(t *testing.T) {
	g, want, _ := chaosFixture(t)
	_, _, err := g.EvalAllDocs(`//book/title`, plan.Options{Budget: gov.Budget{MaxNodes: 1}}, 0, 0)
	if gov.Verdict(err) != "budget_exceeded" {
		t.Fatalf("starved scatter: err = %v, verdict %q", err, gov.Verdict(err))
	}
	got, deg, err := g.EvalAllDocs(`//book[price<40]/title`, plan.Options{Budget: gov.Budget{MaxNodes: 1 << 20, Timeout: time.Minute}}, 0, 0)
	if err != nil || deg != nil {
		t.Fatalf("funded scatter: err=%v deg=%+v", err, deg)
	}
	assertSameDocResults(t, "budget", want, got)
}

// TestShardBudget covers the arithmetic of the per-shard budget
// derivation.
func TestShardBudget(t *testing.T) {
	b := shardBudget(gov.Budget{MaxNodes: 10, MaxOutput: 7}, 3, time.Time{})
	if b.MaxNodes != 4 || b.MaxOutput != 7 || b.Timeout != 0 {
		t.Errorf("shardBudget = %+v, want nodes 4 (ceil 10/3), output 7, no timeout", b)
	}
	b = shardBudget(gov.Budget{}, 4, time.Now().Add(time.Hour))
	if b.MaxNodes != 0 || b.Timeout <= 0 || b.Timeout > time.Hour {
		t.Errorf("shardBudget = %+v, want remaining wall-clock timeout", b)
	}
	b = shardBudget(gov.Budget{}, 2, time.Now().Add(-time.Second))
	if b.Timeout != time.Nanosecond {
		t.Errorf("expired deadline timeout = %v, want 1ns fail-fast", b.Timeout)
	}
}

// TestScatterCanceledContext: a canceled parent context aborts the
// scatter with a canceled verdict and skips the (futile) retry.
func TestScatterCanceledContext(t *testing.T) {
	g, _, _ := chaosFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := obs.Default.Snapshot()
	_, _, err := g.EvalAllDocs(`//book/title`, plan.Options{Ctx: ctx}, 0, 0)
	if gov.Verdict(err) != "canceled" {
		t.Fatalf("err = %v, verdict %q, want canceled", err, gov.Verdict(err))
	}
	if d := obs.Default.Delta(before); d[obs.MetricShardRetries] != 0 {
		t.Errorf("canceled scatter retried %d times, want 0", d[obs.MetricShardRetries])
	}
}

// TestMergeResults: the merged single-result view concatenates the
// surviving documents in URI order and carries the degradation record.
func TestMergeResults(t *testing.T) {
	g, _, _ := chaosFixture(t)
	docs, deg, err := g.EvalAllDocs(`//book/title`, plan.Options{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := MergeResults(docs, deg)
	var n int
	for _, dr := range docs {
		if dr.Err == nil {
			n += len(dr.Result.Nodes)
		}
	}
	if len(res.Nodes) != n {
		t.Errorf("merged nodes = %d, want %d", len(res.Nodes), n)
	}
	if res.Degraded != nil {
		t.Errorf("healthy merge carries degradation: %+v", res.Degraded)
	}
	info := &exec.DegradedInfo{FailedShards: []int{1}}
	if MergeResults(docs, info).Degraded != info {
		t.Error("degradation record not carried through the merge")
	}
}

// TestLatencyHistogramMerge: per-shard latency observations fold into
// the merged cross-shard histogram.
func TestLatencyHistogramMerge(t *testing.T) {
	g, _, _ := chaosFixture(t)
	preCount := g.LatencyHistogram().Count()
	if _, _, err := g.EvalAllDocs(`//book/title`, plan.Options{}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := g.LatencyHistogram().Count(); got <= preCount {
		t.Errorf("merged histogram count %d did not grow past %d", got, preCount)
	}
}
