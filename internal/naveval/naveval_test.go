package naveval

import (
	"testing"

	"blossomtree/internal/flwor"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

const bib = `<bib>
  <book year="1994"><title>Maximum Security</title><price>39</price></book>
  <book year="1997"><title>The Art of Computer Programming</title>
    <author><last>Knuth</last><first>Donald</first></author><price>120</price></book>
  <book year="2003"><title>Terrorist Hunter</title><price>25</price></book>
  <book year="1984"><title>TeX Book</title>
    <author><last>Knuth</last><first>Donald</first></author><price>30</price></book>
</bib>`

func parse(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func evalP(t *testing.T, doc *xmltree.Document, q string) []*xmltree.Node {
	t.Helper()
	res, err := EvalPath(SingleDoc(doc), nil, xpath.MustParse(q), nil)
	if err != nil {
		t.Fatalf("EvalPath(%s): %v", q, err)
	}
	return res
}

func titles(ns []*xmltree.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = xmltree.StringValue(n)
	}
	return out
}

func TestEvalPathBasics(t *testing.T) {
	doc := parse(t, bib)
	cases := []struct {
		q    string
		want int
	}{
		{`doc("bib.xml")//book`, 4},
		{`doc("bib.xml")/bib/book`, 4},
		{`/bib/book/title`, 4},
		{`//book[author]`, 2},
		{`//book[author/last="Knuth"]`, 2},
		{`//book[author][price<35]`, 1},
		{`//book[2]`, 1},
		{`//book[position()=2]`, 1},
		{`//book[@year="1997"]`, 1},
		{`//book[@year]`, 4},
		{`//book[@missing]`, 0},
		{`//book/@year`, 4}, // trailing attribute step: elements having it
		{`//book/..`, 1},
		{`//last/ancestor::book`, 2},
		{`//last/parent::author`, 2},
		{`//book[count(author) = 1]`, 2},
		{`//book[contains(title, "Book")]`, 1},
		{`//book[starts-with(@year, "19")]`, 3},
		{`//book[number(price) < 30]`, 1},
		{`//author//last`, 2},
		{`//bib`, 1},
		{`//*`, 19},
		{`/bib/*`, 4},
		{`//book[not(author)]`, 2},
		{`//book[author or price="25"]`, 3},
		{`//book[price>30 and price<130]`, 2},
		{`//book/following-sibling::book`, 3},
		{`//last[.="Knuth"]`, 2},
		{`//book[title="TeX Book"]`, 1},
		{`//zzz`, 0},
		{`//book[price=39]`, 1},
	}
	for _, c := range cases {
		t.Run(c.q, func(t *testing.T) {
			got := evalP(t, doc, c.q)
			if len(got) != c.want {
				t.Errorf("got %d results, want %d", len(got), c.want)
			}
			for i := 1; i < len(got); i++ {
				if !got[i-1].Before(got[i]) {
					t.Error("results not in document order")
				}
			}
		})
	}
}

func TestEvalPathDocOrderDedup(t *testing.T) {
	doc := parse(t, `<a><b><c/><c/></b><b><c/></b></a>`)
	// //b//c via nested descendant contexts must not duplicate.
	got := evalP(t, doc, `//a//c`)
	if len(got) != 3 {
		t.Errorf("//a//c = %d, want 3", len(got))
	}
	got = evalP(t, doc, `//*//c`)
	if len(got) != 3 {
		t.Errorf("//*//c = %d, want 3 (dedup)", len(got))
	}
}

func TestEvalPathErrors(t *testing.T) {
	doc := parse(t, bib)
	bad := []string{
		`//book/@year/text()`, // attribute step mid-path
		`$x/title`,            // unbound variable
	}
	for _, q := range bad {
		if _, err := EvalPath(SingleDoc(doc), nil, xpath.MustParse(q), nil); err == nil {
			t.Errorf("EvalPath(%s) succeeded, want error", q)
		}
	}
}

func TestEvalPathEnvVars(t *testing.T) {
	doc := parse(t, bib)
	books := evalP(t, doc, `//book`)
	env := Env{"b": books[1:2]}
	res, err := EvalPath(SingleDoc(doc), env, xpath.MustParse(`$b/author/last`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || xmltree.StringValue(res[0]) != "Knuth" {
		t.Errorf("res = %v", titles(res))
	}
}

func TestEvalFLWORSimple(t *testing.T) {
	doc := parse(t, bib)
	f := flwor.MustParse(`for $b in doc("bib.xml")//book where $b/price < 35 return $b/title`).(*flwor.FLWOR)
	envs, err := EvalFLWOR(SingleDoc(doc), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 2 {
		t.Fatalf("envs = %d, want 2 (prices 25 and 30)", len(envs))
	}
	for _, env := range envs {
		if len(env["b"]) != 1 {
			t.Error("for-var not singleton")
		}
	}
}

func TestEvalFLWORLet(t *testing.T) {
	doc := parse(t, bib)
	f := flwor.MustParse(`for $b in doc("d")//book let $a := $b/author where exists($a) return $a`).(*flwor.FLWOR)
	envs, err := EvalFLWOR(SingleDoc(doc), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 2 {
		t.Fatalf("envs = %d, want 2", len(envs))
	}
}

func TestEvalFLWOROrderBy(t *testing.T) {
	doc := parse(t, bib)
	f := flwor.MustParse(`for $b in doc("d")//book order by $b/title return $b`).(*flwor.FLWOR)
	envs, err := EvalFLWOR(SingleDoc(doc), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, env := range envs {
		ts, _ := EvalPath(SingleDoc(doc), env, xpath.MustParse(`$b/title`), nil)
		got = append(got, xmltree.StringValue(ts[0]))
	}
	want := []string{"Maximum Security", "TeX Book", "Terrorist Hunter", "The Art of Computer Programming"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestEvalFLWORExample1 runs the paper's Example 1 on the Example 2
// document and checks for the two expected book-pairs.
func TestEvalFLWORExample1(t *testing.T) {
	doc := parse(t, `<bib>
<book><title> Maximum Security </title></book>
<book><title> The Art of Computer Programming </title>
 <author><last> Knuth </last><first> Donald </first></author></book>
<book><title> Terrorist Hunter </title></book>
<book><title> TeX Book </title>
 <author><last> Knuth </last><first> Donald </first></author></book>
</bib>`)
	q := flwor.MustParse(`<bib>{
for $book1 in doc("bib.xml")//book, $book2 in doc("bib.xml")//book
let $aut1 := $book1/author
let $aut2 := $book2/author
where $book1 << $book2
  and not($book1/title = $book2/title)
  and deep-equal($aut1, $aut2)
return <book-pair>{ $book1/title }{ $book2/title }</book-pair>
}</bib>`)
	f := q.(*flwor.ElemCtor).Content[0].(*flwor.FLWOR)
	envs, err := EvalFLWOR(SingleDoc(doc), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 2 {
		t.Fatalf("got %d book-pairs, want 2", len(envs))
	}
	pair := func(env Env) (string, string) {
		t1, _ := EvalPath(SingleDoc(doc), env, xpath.MustParse(`$book1/title`), nil)
		t2, _ := EvalPath(SingleDoc(doc), env, xpath.MustParse(`$book2/title`), nil)
		return xmltree.StringValue(t1[0]), xmltree.StringValue(t2[0])
	}
	a1, b1 := pair(envs[0])
	a2, b2 := pair(envs[1])
	if a1 != "Maximum Security" || b1 != "Terrorist Hunter" {
		t.Errorf("pair 1 = %q, %q", a1, b1)
	}
	if a2 != "The Art of Computer Programming" || b2 != "TeX Book" {
		t.Errorf("pair 2 = %q, %q", a2, b2)
	}
}

func TestEvalCondForms(t *testing.T) {
	doc := parse(t, bib)
	books := evalP(t, doc, `//book`)
	env := Env{"a": books[1:2], "b": books[3:4]}
	resolve := SingleDoc(doc)
	cases := []struct {
		cond string
		want bool
	}{
		{`$a << $b`, true},
		{`$b << $a`, false},
		{`$a >> $b`, false},
		{`$b >> $a`, true},
		{`deep-equal($a/author, $b/author)`, true},
		{`deep-equal($a/title, $b/title)`, false},
		{`$a/title = $b/title`, false},
		{`not($a/title = $b/title)`, true},
		{`$a/price > $b/price`, true},
		{`$a/price = 120`, true},
		{`exists($a/author)`, true},
		{`exists($a/zzz)`, false},
		{`$a/author`, true},
		{`$a/price = 120 and $b/price = 30`, true},
		{`$a/price = 1 or $b/price = 30`, true},
		{`$a/price = 1 or $b/price = 1`, false},
		{`"x" = "x"`, true},
	}
	for _, c := range cases {
		t.Run(c.cond, func(t *testing.T) {
			q := `for $a in doc("d")//book, $b in doc("d")//book where ` + c.cond + ` return $a`
			f := flwor.MustParse(q).(*flwor.FLWOR)
			got, err := EvalCond(resolve, env, f.Where, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("EvalCond(%s) = %v, want %v", c.cond, got, c.want)
			}
		})
	}
}

func TestEvalPredAttrOperand(t *testing.T) {
	doc := parse(t, `<r><a year="5"><b year="5"/></a></r>`)
	got := evalP(t, doc, `//a[@year=b/@year]`)
	if len(got) != 1 {
		t.Errorf("attr-to-attr comparison = %d results", len(got))
	}
	got = evalP(t, doc, `//a[.=""]`)
	if len(got) != 1 {
		t.Errorf("empty string-value compare = %d", len(got))
	}
}

func TestResolverErrors(t *testing.T) {
	failing := func(string) (*xmltree.Document, error) {
		return nil, errTest
	}
	if _, err := EvalPath(failing, nil, xpath.MustParse(`doc("x")//a`), nil); err == nil {
		t.Error("resolver error not propagated")
	}
	f := flwor.MustParse(`for $a in doc("x")//a return $a`).(*flwor.FLWOR)
	if _, err := EvalFLWOR(failing, f, nil); err == nil {
		t.Error("resolver error not propagated through FLWOR")
	}
}

type testErr string

func (e testErr) Error() string { return string(e) }

var errTest = testErr("boom")
