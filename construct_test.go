package blossomtree_test

import (
	"strings"
	"testing"

	"blossomtree"
	"blossomtree/internal/exec"
	"blossomtree/internal/flwor"
	"blossomtree/internal/naveval"
	"blossomtree/internal/plan"
	"blossomtree/internal/proptest"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// TestXMLMatchesCopiedReference checks that the constructed output,
// which references the source nodes its return paths select,
// serializes byte for byte as a document holding deep copies of them
// would, compact and indented. The reference is built here the way the
// executor once built its output: from the navigational oracle's rows,
// each return path navigated and every node it selects copied. It runs
// on the six FLWOR shapes of the benchmark (on small documents) and on
// every FLWOR of the differential harness's regression list, under Auto
// and under the navigational strategy.
func TestXMLMatchesCopiedReference(t *testing.T) {
	type docs map[string]*xmltree.Document
	type tc struct {
		name, query string
		docs        docs
	}
	var cases []tc
	shapeDocs := docs{}
	for _, id := range []string{"d5", "d2"} {
		doc, err := xmlgen.Generate(id, xmlgen.Config{Seed: 1, TargetNodes: 4000})
		if err != nil {
			t.Fatal(err)
		}
		shapeDocs[id] = doc
	}
	for _, s := range flworShapes {
		cases = append(cases, tc{s.name, s.query, shapeDocs})
	}
	for _, r := range proptest.Regressions {
		if !strings.HasPrefix(r.Query, "for ") && !strings.HasPrefix(r.Query, "<") {
			continue
		}
		doc, err := xmltree.ParseString(r.Doc)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{r.Name, r.Query, docs{"d": doc}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := blossomtree.NewEngine()
			oracle := exec.New()
			for uri, doc := range c.docs {
				eng.LoadDocument(uri, doc)
				oracle.Add(uri, doc)
			}
			nav, err := oracle.EvalOptions(c.query, plan.Options{Strategy: plan.Navigational})
			if err != nil {
				t.Fatal(err)
			}
			resolve := func(uri string) (*xmltree.Document, error) {
				d, _ := oracle.Document(uri)
				return d, nil
			}
			for _, strategy := range []blossomtree.Strategy{blossomtree.StrategyAuto, blossomtree.StrategyNavigational} {
				res, err := eng.QueryWith(c.query, blossomtree.Options{Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				for _, indent := range []bool{false, true} {
					want := copiedReference(t, c.query, nav.Envs(), resolve, xmltree.WriteOptions{Indent: indent})
					got := res.XML()
					if indent {
						got = res.XMLIndent()
					}
					if got != want {
						t.Errorf("strategy %v, indent %v:\n--- got ---\n%s\n--- want ---\n%s", strategy, indent, got, want)
					}
				}
			}
		})
	}
}

// copiedReference serializes a FLWOR's answer over the given rows by
// deep-copying every node its return paths select into a new document,
// or, when it constructs nothing, by serializing the return path's nodes
// row after row.
func copiedReference(t *testing.T, query string, envs []naveval.Env, resolve naveval.Resolver, opts xmltree.WriteOptions) string {
	t.Helper()
	expr, err := flwor.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	f := findFLWOR(expr)
	if f == nil {
		t.Fatalf("%s: no FLWOR", query)
	}
	if !constructs(expr) {
		var sb strings.Builder
		k := 0
		for _, env := range envs {
			ns, err := naveval.EvalPath(resolve, env, f.Return.(*flwor.PathExpr).Path, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range ns {
				if k > 0 && opts.Indent {
					sb.WriteByte('\n')
				}
				sb.WriteString(xmltree.Serialize(n, opts))
				k++
			}
		}
		return sb.String()
	}
	b := xmltree.NewBuilder()
	var build func(x flwor.Expr, env naveval.Env)
	build = func(x flwor.Expr, env naveval.Env) {
		switch x := x.(type) {
		case *flwor.ElemCtor:
			b.Start(x.Tag)
			for _, c := range x.Content {
				build(c, env)
			}
			b.End()
		case *flwor.TextCtor:
			b.Text(x.Text)
		case *flwor.Sequence:
			for _, it := range x.Items {
				build(it, env)
			}
		case *flwor.FLWOR:
			for _, row := range envs {
				build(x.Return, row)
			}
		case *flwor.PathExpr:
			ns, err := naveval.EvalPath(resolve, env, x.Path, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range ns {
				deepCopy(b, n)
			}
		}
	}
	if _, ok := expr.(*flwor.ElemCtor); ok {
		build(expr, nil)
	} else {
		b.Start("results")
		build(expr, nil)
		b.End()
	}
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.Serialize(doc.Root, opts)
}

// deepCopy copies a subtree into the document under construction; a
// document node contributes its children.
func deepCopy(b *xmltree.Builder, n *xmltree.Node) {
	switch n.Kind {
	case xmltree.TextNode:
		b.Text(n.Text)
	case xmltree.DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			deepCopy(b, c)
		}
	case xmltree.ElementNode:
		b.StartAttrs(n.Tag, append([]xmltree.Attr(nil), n.Attrs...))
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			deepCopy(b, c)
		}
		b.End()
	}
}

func findFLWOR(x flwor.Expr) *flwor.FLWOR {
	switch x := x.(type) {
	case *flwor.FLWOR:
		return x
	case *flwor.ElemCtor:
		for _, c := range x.Content {
			if f := findFLWOR(c); f != nil {
				return f
			}
		}
	}
	return nil
}

func constructs(x flwor.Expr) bool {
	switch x := x.(type) {
	case *flwor.ElemCtor:
		return true
	case *flwor.Sequence:
		for _, it := range x.Items {
			if constructs(it) {
				return true
			}
		}
	case *flwor.FLWOR:
		return constructs(x.Return)
	}
	return false
}
