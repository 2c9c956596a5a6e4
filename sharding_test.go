package blossomtree

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"blossomtree/internal/exec"
)

// shardedFixture loads the same catalog into an unsharded engine and
// into 1-shard and 3-shard groups — the three backends every public
// entry point must agree on byte for byte.
func shardedFixture(t *testing.T) (plain *Engine, sharded []*Engine, uris []string) {
	t.Helper()
	plain = NewEngine()
	sharded = []*Engine{NewEngineSharded(1), NewEngineSharded(3)}
	for i := 0; i < 8; i++ {
		uri := fmt.Sprintf("doc-%d.xml", i)
		var sb strings.Builder
		sb.WriteString("<bib>")
		for b := 0; b < i%3+2; b++ {
			fmt.Fprintf(&sb, `<book year="%d"><title>T%d-%d</title><price>%d</price></book>`,
				1990+i, i, b, 10*(b+1)+i)
		}
		sb.WriteString("</bib>")
		for _, e := range append([]*Engine{plain}, sharded...) {
			if err := e.LoadString(uri, sb.String()); err != nil {
				t.Fatal(err)
			}
		}
		uris = append(uris, uri)
	}
	return plain, sharded, uris
}

// canon is the byte-exact comparison form of a result (nil for a failed
// evaluation).
func canon(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	return exec.Canonical(r.inner)
}

var timeColumn = regexp.MustCompile(` · time=\S+`)

// stripTimes drops the wall-time columns of an EXPLAIN ANALYZE
// rendering, which differ run to run; the operator counters stay.
func stripTimes(explain string) string { return timeColumn.ReplaceAllString(explain, "") }

// sameOutcome asserts a sharded outcome equals the unsharded one:
// both fail, or both succeed with byte-identical canonical results.
func sameOutcome(t *testing.T, label string, want *Result, wantErr error, got *Result, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: err %v, unsharded err %v", label, gotErr, wantErr)
	}
	if wantErr == nil && canon(want) != canon(got) {
		t.Errorf("%s: canonical results diverge\nsharded:   %s\nunsharded: %s", label, canon(got), canon(want))
	}
}

func TestShardedEngineBasics(t *testing.T) {
	plain, sharded, uris := shardedFixture(t)
	if n := plain.ShardCount(); n != 1 {
		t.Errorf("unsharded ShardCount = %d, want 1", n)
	}
	for i, want := range []int{1, 3} {
		e := sharded[i]
		if e.ShardCount() != want {
			t.Errorf("ShardCount = %d, want %d", e.ShardCount(), want)
		}
		for _, uri := range uris {
			si, ok := e.DocumentShard(uri)
			if !ok || si < 0 || si >= want {
				t.Errorf("DocumentShard(%q) = %d,%v", uri, si, ok)
			}
		}
		if _, ok := e.DocumentShard("missing.xml"); ok {
			t.Error("DocumentShard found an unregistered URI")
		}
	}
}

// TestShardedQueryMatchesUnsharded: routed single-document queries give
// identical results on every backend, including the resolution rules —
// absolute paths anchor at the first loaded document, an unknown URI in
// a multi-document catalog is an error, a query spanning documents is
// rejected — and single-document aliasing on a one-document catalog.
func TestShardedQueryMatchesUnsharded(t *testing.T) {
	plain, sharded, uris := shardedFixture(t)
	queries := []string{
		`//book/title`,
		`doc("missing.xml")//book`,
		`for $x in doc("doc-0.xml")//book, $y in doc("doc-1.xml")//book return $x`,
		`//book[`,
	}
	for _, uri := range uris {
		queries = append(queries,
			fmt.Sprintf(`for $b in doc(%q)//book where $b/price > 15 order by $b/title return $b/title`, uri),
			fmt.Sprintf(`for $b in doc(%q)//book return <hit>{$b/title}</hit>`, uri))
	}
	for _, q := range queries {
		want, wantErr := plain.Query(q)
		for _, e := range sharded {
			label := fmt.Sprintf("%d shards %s", e.ShardCount(), q)
			got, err := e.Query(q)
			sameOutcome(t, label, want, wantErr, got, err)
			got, err = e.QueryWith(q, Options{Strategy: StrategyNavigational})
			sameOutcome(t, label+" (XH)", want, wantErr, got, err)
			got, err = e.QueryWithContext(context.Background(), q, Options{Strategy: StrategyBoundedNL})
			sameOutcome(t, label+" (NL)", want, wantErr, got, err)
		}
	}

	one := `<bib><book><title>Only</title></book></bib>`
	engines := []*Engine{NewEngine(), NewEngineSharded(1), NewEngineSharded(3)}
	for _, e := range engines {
		if err := e.LoadString("only.xml", one); err != nil {
			t.Fatal(err)
		}
	}
	want, wantErr := engines[0].Query(`doc("whatever.xml")//book/title`)
	if wantErr != nil || want.Len() != 1 {
		t.Fatalf("single-document aliasing: %v, %v", want, wantErr)
	}
	for _, e := range engines[1:] {
		got, err := e.Query(`doc("whatever.xml")//book/title`)
		sameOutcome(t, "single-document aliasing", want, wantErr, got, err)
	}
}

// TestShardedQueryAllDocuments: the fan-out form returns every document
// with its owning shard annotated, identical to the unsharded fan-out.
func TestShardedQueryAllDocuments(t *testing.T) {
	plain, sharded, uris := shardedFixture(t)
	ctx := context.Background()
	for _, q := range []string{`//book[price<30]/title`, `for $b in doc("any.xml")//book return <hit>{$b/title}</hit>`} {
		want, err := plain.QueryAllDocumentsContext(ctx, q, Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sharded {
			got, err := e.QueryAllDocumentsContext(ctx, q, Options{Shards: 2}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(uris) || len(got) != len(want) {
				t.Fatalf("docs = %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].URI != want[i].URI {
					t.Fatalf("doc %d: URI %q vs %q", i, got[i].URI, want[i].URI)
				}
				sameOutcome(t, got[i].URI, want[i].Result, want[i].Err, got[i].Result, got[i].Err)
				if si, _ := e.DocumentShard(got[i].URI); got[i].Shard != si {
					t.Errorf("%s: Shard = %d, want %d", got[i].URI, got[i].Shard, si)
				}
			}
		}
	}
}

// TestShardedQueryAllGathered: the merged gather equals the unsharded
// merged gather, and a healthy run reports no degradation.
func TestShardedQueryAllGathered(t *testing.T) {
	plain, sharded, _ := shardedFixture(t)
	ctx := context.Background()
	want, wantErr := plain.QueryAllGatheredContext(ctx, `//book[price<30]/title`, Options{}, 0)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	for _, e := range sharded {
		got, err := e.QueryAllGatheredContext(ctx, `//book[price<30]/title`, Options{}, 0)
		sameOutcome(t, fmt.Sprintf("%d shards gathered", e.ShardCount()), want, wantErr, got, err)
		if got.Degraded() != nil {
			t.Errorf("healthy gather degraded: %+v", got.Degraded())
		}
	}
}

// TestShardedPrepared: prepared statements route through the shard
// group, keep working across re-runs, and re-route after a load.
func TestShardedPrepared(t *testing.T) {
	plain, sharded, _ := shardedFixture(t)
	q := `doc("doc-2.xml")//book[price<40]/title`
	want, wantErr := plain.Query(q)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	for _, e := range sharded {
		for _, prepare := range []func() (*Prepared, error){
			func() (*Prepared, error) { return e.Prepare(q) },
			func() (*Prepared, error) { return e.PrepareWith(q, Options{Strategy: StrategyBoundedNL}) },
		} {
			p, err := prepare()
			if err != nil {
				t.Fatal(err)
			}
			if p.Source() != q {
				t.Errorf("Source = %q", p.Source())
			}
			for i := 0; i < 2; i++ {
				got, err := p.RunContext(context.Background())
				sameOutcome(t, fmt.Sprintf("%d shards run %d", e.ShardCount(), i), want, wantErr, got, err)
			}
			if err := e.LoadString("late.xml", `<bib/>`); err != nil {
				t.Fatal(err)
			}
			got, err := p.RunContext(context.Background())
			sameOutcome(t, "run after load", want, wantErr, got, err)
		}
		if _, err := e.Prepare(`//book[`); err == nil {
			t.Error("Prepare accepted a bad query on the sharded path")
		}
	}
	// An empty catalog defers the compile check to the first run on
	// every backend.
	for _, e := range []*Engine{NewEngine(), NewEngineSharded(3)} {
		if _, err := e.Prepare(`//book`); err != nil {
			t.Errorf("Prepare on an empty %d-shard catalog: %v", e.ShardCount(), err)
		}
	}
}

// TestShardedBatchAndExplain: batches route per query; EXPLAIN and
// EXPLAIN ANALYZE render the owning shard's plan.
func TestShardedBatchAndExplain(t *testing.T) {
	plain, sharded, _ := shardedFixture(t)
	ctx := context.Background()
	srcs := []string{
		`doc("doc-0.xml")//book/title`,
		`doc("doc-5.xml")//book[price>20]`,
		`//book[`, // parse error stays per-query
	}
	want, err := plain.QueryBatchContext(ctx, srcs, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const eq = `doc("doc-1.xml")//book/title`
	we, err := plain.Explain(eq)
	if err != nil {
		t.Fatal(err)
	}
	// Timing columns differ run to run; the operator counters do not.
	analyze := func(e *Engine) string {
		t.Helper()
		s, err := e.ExplainWithContext(ctx, eq, Options{Analyze: true, Strategy: StrategyBoundedNL})
		if err != nil {
			t.Fatal(err)
		}
		return stripTimes(s)
	}
	wa := analyze(plain)
	if !strings.Contains(wa, " act=") {
		t.Fatalf("EXPLAIN ANALYZE carries no actuals:\n%s", wa)
	}
	for _, e := range sharded {
		got, err := e.QueryBatchContext(ctx, srcs, Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			sameOutcome(t, fmt.Sprintf("batch %d", i), want[i].Result, want[i].Err, got[i].Result, got[i].Err)
		}
		ge, err := e.Explain(eq)
		if err != nil {
			t.Fatal(err)
		}
		if we != ge {
			t.Errorf("sharded explain diverges:\n%s\nvs\n%s", ge, we)
		}
		if ga := analyze(e); ga != wa {
			t.Errorf("sharded explain analyze diverges:\n%s\nvs\n%s", ga, wa)
		}
	}
}
