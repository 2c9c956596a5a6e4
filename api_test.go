package blossomtree

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"blossomtree/internal/exec"
)

// apiFixture loads eight small bibliographies, doc-0.xml first, into one
// engine: the catalog every public entry point below is driven over.
func apiFixture(t *testing.T) (e *Engine, uris []string) {
	t.Helper()
	e = NewEngine()
	for i := 0; i < 8; i++ {
		uri := fmt.Sprintf("doc-%d.xml", i)
		var sb strings.Builder
		sb.WriteString("<bib>")
		for b := 0; b < i%3+2; b++ {
			fmt.Fprintf(&sb, `<book year="%d"><title>T%d-%d</title><price>%d</price></book>`,
				1990+i, i, b, 10*(b+1)+i)
		}
		sb.WriteString("</bib>")
		if err := e.LoadString(uri, sb.String()); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, uri)
	}
	return e, uris
}

// canon is the byte-exact comparison form of a result (nil for a failed
// evaluation).
func canon(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	return exec.Canonical(r.inner)
}

// sameOutcome asserts two entry points agree: both fail, or both succeed
// with byte-identical canonical results.
func sameOutcome(t *testing.T, label string, want *Result, wantErr error, got *Result, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: err %v, want err %v", label, gotErr, wantErr)
	}
	if wantErr == nil && canon(want) != canon(got) {
		t.Errorf("%s: canonical results diverge\ngot:  %s\nwant: %s", label, canon(got), canon(want))
	}
}

// TestQueryResolutionRules: absolute paths anchor at the first loaded
// document, an unknown URI in a multi-document catalog is an error, a
// query spanning documents is rejected, and a one-document catalog
// serves any URI — the same under every strategy and context form.
func TestQueryResolutionRules(t *testing.T) {
	e, uris := apiFixture(t)
	ctx := context.Background()
	if res, err := e.Query(`//book/title`); err != nil || res.Len() != 2 {
		t.Fatalf("absolute path: %v, %v; want doc-0.xml's 2 titles", res, err)
	}
	for _, q := range []string{
		`doc("missing.xml")//book`,
		`for $x in doc("doc-0.xml")//book, $y in doc("doc-1.xml")//book return $x`,
		`//book[`,
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("%s: no error", q)
		}
	}
	queries := []string{`//book/title`, `doc("missing.xml")//book`}
	for _, uri := range uris {
		queries = append(queries,
			fmt.Sprintf(`for $b in doc(%q)//book where $b/price > 15 order by $b/title return $b/title`, uri),
			fmt.Sprintf(`for $b in doc(%q)//book return <hit>{$b/title}</hit>`, uri))
	}
	for _, q := range queries {
		want, wantErr := e.Query(q)
		got, err := e.QueryWith(q, Options{Strategy: StrategyNavigational})
		sameOutcome(t, q+" (XH)", want, wantErr, got, err)
		got, err = e.QueryWithContext(ctx, q, Options{Strategy: StrategyBoundedNL})
		sameOutcome(t, q+" (NL)", want, wantErr, got, err)
	}

	one := NewEngine()
	if err := one.LoadString("only.xml", `<bib><book><title>Only</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	if res, err := one.Query(`doc("whatever.xml")//book/title`); err != nil || res.Len() != 1 {
		t.Fatalf("single-document aliasing: %v, %v", res, err)
	}
}

// TestQueryAllDocumentsPinsEachDocument: the fan-out form returns every
// document in URI order, each evaluated as if the query named it.
func TestQueryAllDocumentsPinsEachDocument(t *testing.T) {
	e, uris := apiFixture(t)
	ctx := context.Background()
	for _, q := range []string{
		`doc(%q)//book[price<30]/title`,
		`for $b in doc(%q)//book return <hit>{$b/title}</hit>`,
	} {
		got, err := e.QueryAllDocumentsContext(ctx, fmt.Sprintf(q, "any.xml"), Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(uris) {
			t.Fatalf("docs = %d, want %d", len(got), len(uris))
		}
		for i, uri := range uris {
			if got[i].URI != uri {
				t.Fatalf("doc %d: URI %q, want %q", i, got[i].URI, uri)
			}
			want, wantErr := e.Query(fmt.Sprintf(q, uri))
			sameOutcome(t, uri, want, wantErr, got[i].Result, got[i].Err)
		}
	}
}

// TestQueryAllGathered: the gathered form is the all-documents results
// concatenated in URI order.
func TestQueryAllGathered(t *testing.T) {
	e, _ := apiFixture(t)
	ctx := context.Background()
	const q = `//book[price<30]/title`
	docs, err := e.QueryAllDocumentsContext(ctx, q, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, d := range docs {
		for _, n := range d.Result.Nodes() {
			want = append(want, n.XML())
		}
	}
	got, err := e.QueryAllGatheredContext(ctx, q, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(want) || len(want) == 0 {
		t.Fatalf("gathered %d results, want %d", got.Len(), len(want))
	}
	for i, n := range got.Nodes() {
		if n.XML() != want[i] {
			t.Errorf("node %d = %s, want %s", i, n.XML(), want[i])
		}
	}
}

// TestQueryAllGatheredFailedDocument: a gathered result never silently
// drops a document. When one document exceeds the budget, the gathered
// form fails with that document's error — naming it and still a budget
// abort — where it used to return the other documents' rows as success.
func TestQueryAllGatheredFailedDocument(t *testing.T) {
	e := NewEngine()
	if err := e.LoadString("big.xml", "<r>"+strings.Repeat("<a><b/></a>", 200)+"</r>"); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadString("small.xml", `<r><a><b/></a></r>`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Budget: Budget{MaxNodes: 20}}
	docs, err := e.QueryAllDocumentsContext(ctx, `//a/b`, opts, 0)
	if err != nil || len(docs) != 2 || !errors.Is(docs[0].Err, ErrBudgetExceeded) || docs[1].Err != nil {
		t.Fatalf("per-document outcomes: %+v, %v; want big.xml over budget, small.xml ok", docs, err)
	}
	res, err := e.QueryAllGatheredContext(ctx, `//a/b`, opts, 0)
	if err == nil {
		t.Fatalf("gathered result over a failed document succeeded with %d rows", res.Len())
	}
	if !errors.Is(err, ErrBudgetExceeded) || Verdict(err) != "budget_exceeded" {
		t.Errorf("err = %v (verdict %s), want a budget abort", err, Verdict(err))
	}
	if !strings.Contains(err.Error(), `"big.xml"`) {
		t.Errorf("err = %v, want it to name big.xml", err)
	}
	if _, ok := AbortStats(err); !ok {
		t.Error("the wrapped abort lost its partial statistics")
	}
}

// TestPreparedEntryPoints: prepared runs agree with Query, keep working
// across re-runs and after a load, and a bad query fails at Prepare.
func TestPreparedEntryPoints(t *testing.T) {
	e, _ := apiFixture(t)
	q := `doc("doc-2.xml")//book[price<40]/title`
	want, wantErr := e.Query(q)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
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
			sameOutcome(t, fmt.Sprintf("run %d", i), want, wantErr, got, err)
		}
		if err := e.LoadString("late.xml", `<bib/>`); err != nil {
			t.Fatal(err)
		}
		got, err := p.RunContext(context.Background())
		sameOutcome(t, "run after load", want, wantErr, got, err)
	}
	if _, err := e.Prepare(`//book[`); err == nil {
		t.Error("Prepare accepted a bad query")
	}
	// An empty catalog defers the compile check to the first run.
	if _, err := NewEngine().Prepare(`//book`); err != nil {
		t.Errorf("Prepare on an empty catalog: %v", err)
	}
}

// TestStrategyVectorizedRunsAuto: the deprecated strategy names
// (vectorized, cost) are aliases of Auto, with Auto's answer and Auto's
// plan, on a chain and on a branching query.
func TestStrategyVectorizedRunsAuto(t *testing.T) {
	const doc = `<bib><book><title>A</title><author><last>Knuth</last></author></book>` +
		`<book><title>B</title></book><book><title>C</title><author><last>Date</last></author></book></bib>`
	ctx := context.Background()
	e := NewEngine()
	if err := e.LoadString("bib.xml", doc); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//book//last`, `//book[author]/title`} {
		headline := func(s Strategy) string {
			x, err := e.ExplainWithContext(ctx, q, Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s: explain %s: %v", q, s, err)
			}
			return strings.SplitN(x, "\n", 2)[0]
		}
		for _, alias := range []Strategy{StrategyVectorized, StrategyCostBased} {
			label := q + " " + string(alias)
			want, wantErr := e.QueryWith(q, Options{Strategy: StrategyAuto})
			got, err := e.QueryWith(q, Options{Strategy: alias})
			sameOutcome(t, label, want, wantErr, got, err)
			if a, v := headline(StrategyAuto), headline(alias); a != v {
				t.Errorf("%s: headline %q, auto %q", label, v, a)
			}
		}
	}
}

// TestBatchAndExplainEntryPoints: each batch entry agrees with Query on
// its own (a parse error stays per entry), and EXPLAIN ANALYZE renders
// the operator counters.
func TestBatchAndExplainEntryPoints(t *testing.T) {
	e, _ := apiFixture(t)
	ctx := context.Background()
	srcs := []string{
		`doc("doc-0.xml")//book/title`,
		`doc("doc-5.xml")//book[price>20]`,
		`//book[`,
	}
	got, err := e.QueryBatchContext(ctx, srcs, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		want, wantErr := e.Query(src)
		if got[i].Query != src {
			t.Errorf("batch %d: Query = %q", i, got[i].Query)
		}
		sameOutcome(t, fmt.Sprintf("batch %d", i), want, wantErr, got[i].Result, got[i].Err)
	}

	const eq = `doc("doc-1.xml")//book/title`
	plain, err := e.Explain(eq)
	if err != nil || !strings.HasPrefix(plain, "plan strategy: ") {
		t.Fatalf("Explain = %q, %v", plain, err)
	}
	a, err := e.ExplainWithContext(ctx, eq, Options{Analyze: true, Strategy: StrategyBoundedNL})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a, " act=") {
		t.Fatalf("EXPLAIN ANALYZE carries no actuals:\n%s", a)
	}
}
