package blossomtree

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
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

// TestQueryAllDocumentsPinsEachDocument: the gathered fan-out evaluates
// every document as if the query named it and concatenates the answers
// in URI order: nodes for a path, constructed content for a FLWOR that
// constructs, under its synthetic root or its outer constructor.
func TestQueryAllDocumentsPinsEachDocument(t *testing.T) {
	e, uris := apiFixture(t)
	ctx := context.Background()
	for _, c := range []struct{ q, open, close string }{
		{`doc(%q)//book[price<30]/title`, "", ""},
		{`for $b in doc(%q)//book return <hit>{$b/title}</hit>`, "<results>", "</results>"},
		{`<all>{ for $b in doc(%q)//book where $b/price > 15 return <hit>{$b/title}</hit> }</all>`, "<all>", "</all>"},
	} {
		got, err := e.QueryAllGatheredContext(ctx, fmt.Sprintf(c.q, "any.xml"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// answer is a result's content: its nodes, or its document
		// without the root element.
		answer := func(r *Result) string {
			if c.open == "" {
				var sb strings.Builder
				for _, n := range r.Nodes() {
					sb.WriteString(n.XML())
				}
				return sb.String()
			}
			return strings.TrimSuffix(strings.TrimPrefix(r.XML(), c.open), c.close)
		}
		var want strings.Builder
		rows := 0
		for _, uri := range uris {
			res, err := e.Query(fmt.Sprintf(c.q, uri))
			if err != nil {
				t.Fatal(err)
			}
			rows += res.Len()
			want.WriteString(answer(res))
		}
		if got.Len() != rows || answer(got) != want.String() || want.Len() == 0 {
			t.Errorf("%s: gathered %d rows\n%s\nwant %d\n%s", c.q, got.Len(), answer(got), rows, want.String())
		}
	}
}

// TestQueryAllGatheredConstructs: a gathered FLWOR that constructs
// elements answers one document, its outer constructor built once and
// its return clause once per row of every document, in URI order.
func TestQueryAllGatheredConstructs(t *testing.T) {
	e := NewEngine()
	for _, d := range []string{"A", "B"} {
		if err := e.LoadString(strings.ToLower(d)+".xml", `<bib><book><title>`+d+`</title></book></bib>`); err != nil {
			t.Fatal(err)
		}
	}
	const ret = `for $b in doc("a.xml")//book return <t>{ $b/title }</t>`
	for _, c := range []struct{ q, want string }{
		{ret, `<results><t><title>A</title></t><t><title>B</title></t></results>`},
		{`<out><n/>{ ` + ret + ` }</out>`, `<out><n/><t><title>A</title></t><t><title>B</title></t></out>`},
	} {
		for _, s := range []Strategy{StrategyAuto, StrategyNavigational} {
			res, err := e.QueryAllGatheredContext(context.Background(), c.q, Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s (%s): %v", c.q, s, err)
			}
			if res.Len() != 2 || res.XML() != c.want {
				t.Errorf("%s (%s): %d rows, XML %q; want 2 rows, %q", c.q, s, res.Len(), res.XML(), c.want)
			}
		}
	}
}

// TestQueryAllGathered: the gathered form is each document's answer to
// the query naming it, concatenated in URI order.
func TestQueryAllGathered(t *testing.T) {
	e, uris := apiFixture(t)
	ctx := context.Background()
	var want []string
	for _, uri := range uris {
		res, err := e.Query(fmt.Sprintf(`doc(%q)//book[price<30]/title`, uri))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Nodes() {
			want = append(want, n.XML())
		}
	}
	got, err := e.QueryAllGatheredContext(ctx, `//book[price<30]/title`, Options{})
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
	if _, err := e.QueryWithContext(ctx, `doc("big.xml")//a/b`, opts); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("big.xml alone: %v, want a budget abort", err)
	}
	if _, err := e.QueryWithContext(ctx, `doc("small.xml")//a/b`, opts); err != nil {
		t.Fatalf("small.xml alone: %v", err)
	}
	res, err := e.QueryAllGatheredContext(ctx, `//a/b`, opts)
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

// TestPreparedEntryPoints: repeating a query through the public entry
// points is served from the plan cache, agrees with the first run, and
// keeps working after a load; a bad query fails every run.
func TestPreparedEntryPoints(t *testing.T) {
	e, _ := apiFixture(t)
	q := `doc("doc-2.xml")//book[price<40]/title`
	for _, opts := range []Options{{}, {Strategy: StrategyBoundedNL}} {
		want, wantErr := e.QueryWith(q, opts)
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		for i := 0; i < 2; i++ {
			got, err := e.QueryWithContext(context.Background(), q, opts)
			sameOutcome(t, fmt.Sprintf("run %d", i), want, wantErr, got, err)
			if err == nil && !got.Cached() {
				t.Errorf("%s run %d missed the plan cache", opts.Strategy, i)
			}
		}
		if err := e.LoadString("late.xml", `<bib/>`); err != nil {
			t.Fatal(err)
		}
		got, err := e.QueryWith(q, opts)
		sameOutcome(t, "run after load", want, wantErr, got, err)
		if err == nil && got.Cached() {
			t.Errorf("%s: the run after a load reused a stale plan", opts.Strategy)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Query(`//book[`); err == nil {
			t.Errorf("run %d accepted a bad query", i)
		}
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

// TestBatchAndExplainEntryPoints: a batch of concurrent
// QueryWithContext calls each agrees with Query on its own (a parse
// error stays with its call), and EXPLAIN ANALYZE renders the operator
// counters.
func TestBatchAndExplainEntryPoints(t *testing.T) {
	e, _ := apiFixture(t)
	ctx := context.Background()
	srcs := []string{
		`doc("doc-0.xml")//book/title`,
		`doc("doc-5.xml")//book[price>20]`,
		`//book[`,
	}
	got := make([]*Result, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = e.QueryWithContext(ctx, src, Options{})
		}()
	}
	wg.Wait()
	for i, src := range srcs {
		want, wantErr := e.Query(src)
		sameOutcome(t, fmt.Sprintf("batch %d", i), want, wantErr, got[i], errs[i])
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
