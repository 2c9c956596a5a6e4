package blossomtree

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

const bib = `<bib>
<book year="1994"><title>Maximum Security</title><price>39</price></book>
<book year="1997"><title>The Art of Computer Programming</title>
 <author><last>Knuth</last><first>Donald</first></author><price>120</price></book>
<book year="2003"><title>Terrorist Hunter</title><price>25</price></book>
<book year="1984"><title>TeX Book</title>
 <author><last>Knuth</last><first>Donald</first></author><price>30</price></book>
</bib>`

func newBib(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.LoadString("bib.xml", bib); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPathQuery(t *testing.T) {
	e := newBib(t)
	res, err := e.Query(`//book[author/last="Knuth"]/title`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || len(res.Nodes()) != 2 {
		t.Fatalf("len = %d", res.Len())
	}
	if got := res.Nodes()[0].Text(); got != "The Art of Computer Programming" {
		t.Errorf("first title = %q", got)
	}
	if res.Nodes()[0].Tag() != "title" {
		t.Errorf("tag = %q", res.Nodes()[0].Tag())
	}
	if !res.Nodes()[0].Before(res.Nodes()[1]) {
		t.Error("nodes out of document order")
	}
}

func TestFLWORQuery(t *testing.T) {
	e := newBib(t)
	res, err := e.Query(`for $b in doc("bib.xml")//book
		where $b/price < 50
		order by $b/title
		return <cheap>{ $b/title }</cheap>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
	xml := res.XML()
	if !strings.Contains(xml, "<results>") || strings.Count(xml, "<cheap>") != 3 {
		t.Errorf("XML = %s", xml)
	}
	if !strings.Contains(res.XMLIndent(), "\n") {
		t.Error("XMLIndent not indented")
	}
	col := res.Column("b")
	if len(col) != 3 || col[0].Tag() != "book" {
		t.Errorf("Column = %v", col)
	}
	if y, ok := col[0].Attr("year"); !ok || y != "1994" {
		t.Errorf("attr year = %q %v", y, ok)
	}
}

func TestQueryWithStrategies(t *testing.T) {
	e := newBib(t)
	for _, s := range []Strategy{StrategyAuto, StrategyPipelined, StrategyBoundedNL, StrategyTwigStack, StrategyNavigational} {
		res, err := e.QueryWith(`//book//last`, Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(res.Nodes()) != 2 {
			t.Errorf("%s: %d nodes", s, len(res.Nodes()))
		}
	}
	if _, err := e.QueryWith(`//book`, Options{Strategy: "bogus"}); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestExplain(t *testing.T) {
	e := newBib(t)
	s, err := e.Explain(`//book[author]//last`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "plan strategy") {
		t.Errorf("explain = %s", s)
	}
}

func TestStats(t *testing.T) {
	e := newBib(t)
	st, err := e.Stats("bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	if st.Elements != 19 || st.Recursive || st.Tags != 7 {
		t.Errorf("stats = %+v", st)
	}
	empty := NewEngine()
	if _, err := empty.Stats("none"); err == nil {
		t.Error("Stats on empty engine should fail")
	}
}

func TestNodeNavigation(t *testing.T) {
	e := newBib(t)
	res, err := e.Query(`//author`)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Nodes()[0]
	if a.Parent().Tag() != "book" {
		t.Errorf("parent = %q", a.Parent().Tag())
	}
	kids := a.Children("")
	if len(kids) != 2 || kids[0].Tag() != "last" {
		t.Errorf("children = %v", kids)
	}
	if len(a.Children("first")) != 1 {
		t.Error("filtered children wrong")
	}
	desc := a.Descendants("")
	if len(desc) != 2 {
		t.Errorf("descendants = %d", len(desc))
	}
	if a.Depth() != 3 {
		t.Errorf("depth = %d", a.Depth())
	}
	if !strings.Contains(a.XML(), "<last>") {
		t.Errorf("XML = %s", a.XML())
	}
	var zero Node
	if !zero.IsZero() || zero.Tag() != "" || zero.XML() != "" || !zero.Parent().IsZero() {
		t.Error("zero node misbehaves")
	}
	if zero.Children("") != nil || zero.Descendants("") != nil || zero.Depth() != 0 {
		t.Error("zero node navigation misbehaves")
	}
	if _, ok := zero.Attr("x"); ok {
		t.Error("zero node attr")
	}
	root := res.Nodes()[0]
	top := root.Parent().Parent()
	if top.Tag() != "bib" || !top.Parent().IsZero() {
		t.Error("walking to root failed")
	}
}

func TestLoadErrors(t *testing.T) {
	e := NewEngine()
	if err := e.LoadString("x", "<broken"); err == nil {
		t.Error("broken XML accepted")
	}
	if err := e.Load("x", strings.NewReader("also <broken")); err == nil {
		t.Error("broken reader accepted")
	}
	if err := e.LoadFile("x", "/nonexistent/path.xml"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSortNodes(t *testing.T) {
	e := newBib(t)
	res, _ := e.Query(`//title`)
	ns := []Node{res.Nodes()[2], res.Nodes()[0], res.Nodes()[1]}
	SortNodes(ns)
	if !(ns[0].Before(ns[1]) && ns[1].Before(ns[2])) {
		t.Error("SortNodes failed")
	}
}

func TestExample1ViaFacade(t *testing.T) {
	e := newBib(t)
	res, err := e.Query(`<pairs>{
for $b1 in doc("bib.xml")//book, $b2 in doc("bib.xml")//book
let $a1 := $b1/author
let $a2 := $b2/author
where $b1 << $b2 and not($b1/title = $b2/title) and deep-equal($a1, $a2)
return <pair>{ $b1/title }{ $b2/title }</pair>
}</pairs>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("pairs = %d", res.Len())
	}
	if strings.Count(res.XML(), "<pair>") != 2 {
		t.Errorf("XML = %s", res.XML())
	}
}

// TestQueryBatchViaFacade: queries run concurrently through the facade
// each get their own answer or their own error.
func TestQueryBatchViaFacade(t *testing.T) {
	e := newBib(t)
	queries := []string{
		`//book/title`,
		`//book[author/last="Knuth"]/title`,
		`not a query`,
		`for $b in doc("bib.xml")//book where $b/price < 50 return <c>{ $b/title }</c>`,
	}
	wantLens := []int{4, 2, -1, 3}
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.QueryWithContext(context.Background(), q, Options{})
			switch {
			case wantLens[i] < 0:
				if err == nil {
					t.Errorf("query %d: expected error", i)
				}
			case err != nil:
				t.Errorf("query %d: %v", i, err)
			case res.Len() != wantLens[i]:
				t.Errorf("query %d len = %d, want %d", i, res.Len(), wantLens[i])
			}
		}()
	}
	wg.Wait()
	if _, err := e.QueryWithContext(context.Background(), queries[0], Options{Strategy: "bogus"}); err == nil {
		t.Error("bad strategy should fail the call")
	}
}

func TestQueryAllDocumentsViaFacade(t *testing.T) {
	e := newBib(t)
	if err := e.LoadString("tiny.xml", `<bib><book><title>T</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAllGatheredContext(context.Background(), `//book/title`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// bib.xml's 4 titles, then tiny.xml's.
	nodes := res.Nodes()
	if len(nodes) != 5 || nodes[4].Text() != "T" {
		t.Fatalf("gathered %d titles, want bib.xml's 4 then tiny.xml's 1", len(nodes))
	}
	if _, err := e.QueryAllGatheredContext(context.Background(), `//book/title`, Options{Strategy: "bogus"}); err == nil {
		t.Error("bad strategy should fail the gathered call")
	}
}

func TestConcurrentLoadAndQueryViaFacade(t *testing.T) {
	e := newBib(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					if err := e.LoadString(fmt.Sprintf("g%d-%d.xml", g, i), bib); err != nil {
						errs <- err
						return
					}
				} else {
					res, err := e.Query(`doc("bib.xml")//book/title`)
					if err != nil {
						errs <- err
						return
					}
					if res.Len() != 4 {
						errs <- fmt.Errorf("len = %d, want 4", res.Len())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
