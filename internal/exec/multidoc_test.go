package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/segstore"
	"blossomtree/internal/xmltree"
)

// subtreeNodes collects every node under (and including) n.
func subtreeNodes(n *xmltree.Node, into map[*xmltree.Node]bool) {
	into[n] = true
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		subtreeNodes(c, into)
	}
}

// TestMultiDocumentIdentity registers two documents parsed from the
// same XML — so every region label coincides — and checks the engine
// keeps the documents' nodes apart by identity rather than by label.
// The planned path is single-document by design, so the cross-document
// join runs navigationally; the per-document planned queries must still
// bind nodes of exactly the document their doc() clause names.
func TestMultiDocumentIdentity(t *testing.T) {
	docA, err := xmltree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	docB, err := xmltree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	inA := map[*xmltree.Node]bool{}
	subtreeNodes(docA.Root, inA)
	inB := map[*xmltree.Node]bool{}
	subtreeNodes(docB.Root, inB)

	e := New()
	e.Add("a", docA)
	e.Add("b", docB)

	// Cross-document join (navigational: the planned path rejects queries
	// spanning documents). Four books per document with distinct titles:
	// exactly four rows, each pairing a book with its same-labelled twin.
	const q = `for $x in doc("a")//book, $y in doc("b")//book where $x/title = $y/title return $x`
	res, err := e.EvalOptions(q, plan.Options{Strategy: plan.Navigational})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Envs()) != 4 {
		t.Fatalf("cross-document join produced %d rows, want 4 (one per title pair)", len(res.Envs()))
	}
	for i, env := range res.Envs() {
		if len(env["x"]) != 1 || len(env["y"]) != 1 {
			t.Fatalf("row %d: unexpected binding arity", i)
		}
		x, y := env["x"][0], env["y"][0]
		if !inA[x] || inB[x] {
			t.Errorf("row %d: $x is not a node of document a", i)
		}
		if !inB[y] || inA[y] {
			t.Errorf("row %d: $y is not a node of document b", i)
		}
		if x.Start != y.Start {
			t.Errorf("row %d: twins should share region labels (got %d vs %d)", i, x.Start, y.Start)
		}
	}

	// Per-document planned evaluation: with coinciding labels, the only
	// thing separating the result sets is node identity.
	for _, v := range strategyVariants(false) {
		resA, err := e.EvalOptions(`doc("a")//book[author]`, v.opts)
		if err != nil {
			t.Fatalf("variant %s on doc a: %v", v.name, err)
		}
		resB, err := e.EvalOptions(`doc("b")//book[author]`, v.opts)
		if err != nil {
			t.Fatalf("variant %s on doc b: %v", v.name, err)
		}
		if len(resA.Nodes) != 2 || len(resB.Nodes) != 2 {
			t.Fatalf("variant %s: got %d/%d authored books, want 2/2", v.name, len(resA.Nodes), len(resB.Nodes))
		}
		for i := range resA.Nodes {
			a, b := resA.Nodes[i], resB.Nodes[i]
			if !inA[a] {
				t.Errorf("variant %s: doc(\"a\") result %d is not a node of document a", v.name, i)
			}
			if !inB[b] {
				t.Errorf("variant %s: doc(\"b\") result %d is not a node of document b", v.name, i)
			}
			if a.Start != b.Start {
				t.Errorf("variant %s: result %d labels should coincide (got %d vs %d)", v.name, i, a.Start, b.Start)
			}
		}
	}
}

// TestGatherKeepsRowsOfEachDocument gathers an all-documents FLWOR over
// two documents parsed from the same XML, so every region label
// coincides: the gathered rows are each document's rows in URI order,
// none collapsed into a twin of the other document, bound to nodes of
// the document they came from.
func TestGatherKeepsRowsOfEachDocument(t *testing.T) {
	docA, err := xmltree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	docB, err := xmltree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	inA := map[*xmltree.Node]bool{}
	subtreeNodes(docA.Root, inA)
	e := New()
	e.Add("a", docA)
	e.Add("b", docB)
	const q = `for $b in doc("bib.xml")//book where exists($b/author) return <r>{ $b/title }</r>`
	for _, v := range []struct {
		name string
		opts plan.Options
	}{
		{"auto", plan.Options{}},
		{"pipelined", plan.Options{Strategy: plan.Pipelined}},
		{"bounded-nl", plan.Options{Strategy: plan.BoundedNL}},
		{"navigational", plan.Options{Strategy: plan.Navigational}},
	} {
		merged, err := e.EvalAllDocs(q, v.opts)
		if err != nil {
			t.Fatalf("variant %s: %v", v.name, err)
		}
		envs := merged.Envs()
		if merged.Len() != 4 || len(envs) != 4 {
			t.Fatalf("variant %s: gathered %d rows (%d envs), want 2 per document", v.name, merged.Len(), len(envs))
		}
		for i, env := range envs {
			if b := env["b"]; len(b) != 1 || inA[b[0]] != (i < 2) {
				t.Errorf("variant %s: row %d is not bound to a book of document %q", v.name, i, []string{"a", "b"}[i/2])
			}
		}
		if envs[0]["b"][0].Start != envs[2]["b"][0].Start {
			t.Errorf("variant %s: twin rows should share region labels", v.name)
		}
	}
}

// TestGatheredConstructBuildsOnce: in a fan-out, each document's
// evaluation stops at its rows and builds no output, and the one output
// gather builds is byte for byte each document's own answer in URI
// order, under the outer constructor, or the synthetic root when there
// is none.
func TestGatheredConstructBuildsOnce(t *testing.T) {
	e := New()
	for i, x := range []string{bibXML,
		`<bib><book><title>Z</title><author><last>L</last></author></book><book><title>A</title></book></bib>`} {
		doc, err := xmltree.ParseString(x)
		if err != nil {
			t.Fatal(err)
		}
		e.Add(fmt.Sprintf("d%d.xml", i), doc)
	}
	const body = `for $b in doc("bib.xml")//book let $a := $b/author order by $b/title return <r>{ $b/title, $a/last }</r>`
	for _, tc := range []struct{ q, open, close string }{
		{body, "<results>", "</results>"},
		{`for $b in doc("bib.xml")//book where exists($b/author) return <r>{ $b/title }</r>`, "<results>", "</results>"},
		{`<all><n/>{ ` + body + ` }</all>`, "<all><n/>", "</all>"},
	} {
		for _, strat := range []plan.Strategy{plan.Auto, plan.Pipelined, plan.Navigational} {
			opts := plan.Options{Strategy: strat}
			q, err := parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			snap := e.snapshot()
			var want strings.Builder
			want.WriteString(tc.open)
			for _, uri := range snap.uris() {
				res, err := evalInto(&obs.QueryRecord{}, snap.pin(uri), q, opts, true)
				if err != nil {
					t.Fatal(err)
				}
				if res.Output != nil || res.Len() == 0 {
					t.Errorf("%s (%s) on %s: gathered evaluation built output %v over %d rows; want none over its rows",
						tc.q, strat, uri, res.Output, res.Len())
				}
				own, err := evalInto(&obs.QueryRecord{}, snap.pin(uri), q, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				x := own.Output.Serialize(xmltree.WriteOptions{})
				want.WriteString(strings.TrimSuffix(strings.TrimPrefix(x, tc.open), tc.close))
			}
			want.WriteString(tc.close)
			got, err := e.EvalAllDocs(tc.q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if x := got.Output.Serialize(xmltree.WriteOptions{}); x != want.String() {
				t.Errorf("%s (%s): gathered\n%s\nwant\n%s", tc.q, strat, x, want.String())
			}
		}
	}
}

// TestStatsAreTheEngines: Stats answers with the statistics the engine
// holds — Add's for a heap document, the segment's for a store-backed
// one, which stays on disk — and they are what ComputeStats derives.
func TestStatsAreTheEngines(t *testing.T) {
	doc, err := xmltree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.ComputeStats(doc)

	heap := New()
	heap.Add("bib.xml", doc)
	if got, err := heap.Stats("bib.xml"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("heap Stats = %+v, %v; want %+v", got, err, want)
	}

	dir := t.TempDir()
	w, err := segstore.OpenDir(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save("bib.xml", doc, want, nil); err != nil {
		t.Fatal(err)
	}
	st, err := segstore.OpenDir(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := New()
	stored.AttachStore(st)
	got, err := stored.Stats("bib.xml")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("store-backed Stats = %+v, %v; want %+v", got, err, want)
	}
	if n := st.Resident(); n != 0 {
		t.Errorf("Stats materialized the store document (%d bytes resident)", n)
	}
	if _, err := stored.Stats("other.xml"); err != nil {
		t.Errorf("a one-document catalog serves any URI: %v", err)
	}
	if _, err := New().Stats("bib.xml"); err == nil {
		t.Error("Stats on an empty engine succeeded")
	}
}
