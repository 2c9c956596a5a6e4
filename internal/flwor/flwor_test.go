package flwor

import (
	"strings"
	"testing"

	"blossomtree/internal/xpath"
)

// example1 is the paper's Example 1 query verbatim (modulo whitespace).
const example1 = `<bib>
{
for $book1 in doc("bib.xml")//book,
    $book2 in doc("bib.xml")//book
let $aut1 := $book1/author
let $aut2 := $book2/author
where $book1 << $book2
  and not($book1/title = $book2/title)
  and deep-equal($aut1, $aut2)
return
  <book-pair>
    { $book1/title }
    { $book2/title }
  </book-pair>
}
</bib>`

func TestParseExample1(t *testing.T) {
	e, err := Parse(example1)
	if err != nil {
		t.Fatalf("Parse(example1): %v", err)
	}
	bib, ok := e.(*ElemCtor)
	if !ok || bib.Tag != "bib" {
		t.Fatalf("top = %T %v", e, e)
	}
	if len(bib.Content) != 1 {
		t.Fatalf("bib content = %d items", len(bib.Content))
	}
	f, ok := bib.Content[0].(*FLWOR)
	if !ok {
		t.Fatalf("bib content = %T", bib.Content[0])
	}
	if len(f.Clauses) != 4 {
		t.Fatalf("clauses = %d, want 4", len(f.Clauses))
	}
	wantClauses := []struct {
		kind ClauseKind
		v    string
	}{
		{ForClause, "book1"}, {ForClause, "book2"}, {LetClause, "aut1"}, {LetClause, "aut2"},
	}
	for i, w := range wantClauses {
		if f.Clauses[i].Kind != w.kind || f.Clauses[i].Var != w.v {
			t.Errorf("clause %d = %v $%s, want %v $%s", i, f.Clauses[i].Kind, f.Clauses[i].Var, w.kind, w.v)
		}
	}
	if f.Clauses[0].Path.Source.Kind != xpath.SourceDoc || f.Clauses[0].Path.Source.Doc != "bib.xml" {
		t.Errorf("clause 0 source = %+v", f.Clauses[0].Path.Source)
	}
	if f.Clauses[2].Path.Source.Kind != xpath.SourceVar || f.Clauses[2].Path.Source.Var != "book1" {
		t.Errorf("clause 2 source = %+v", f.Clauses[2].Path.Source)
	}

	// where: <<  and  not(=)  and  deep-equal
	and1, ok := f.Where.(xpath.And)
	if !ok {
		t.Fatalf("where = %T", f.Where)
	}
	and0, ok := and1.L.(xpath.And)
	if !ok {
		t.Fatalf("where.L = %T", and1.L)
	}
	if do, ok := and0.L.(xpath.DocOrder); !ok || !do.Before {
		t.Errorf("first condition = %#v, want <<", and0.L)
	}
	if n, ok := and0.R.(xpath.Not); !ok {
		t.Errorf("second condition = %#v, want not(...)", and0.R)
	} else if cmp, ok := n.E.(xpath.Compare); !ok || cmp.Op != xpath.OpEq {
		t.Errorf("not body = %#v", n.E)
	}
	if de, ok := and1.R.(xpath.DeepEqual); !ok {
		t.Errorf("third condition = %#v, want deep-equal", and1.R)
	} else if de.Left.Source.Var != "aut1" || de.Right.Source.Var != "aut2" {
		t.Errorf("deep-equal operands = %v, %v", de.Left, de.Right)
	}

	ret, ok := f.Return.(*ElemCtor)
	if !ok || ret.Tag != "book-pair" || len(ret.Content) != 2 {
		t.Fatalf("return = %#v", f.Return)
	}
	// Round trip through String.
	s := e.String()
	for _, frag := range []string{"for $book1 in", "let $aut1 :=", "<<", "deep-equal(", "<book-pair>"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q in %q", frag, s)
		}
	}
}

func TestParseBarePathQuery(t *testing.T) {
	e, err := Parse(`doc("f.xml")//a/b`)
	if err != nil {
		t.Fatal(err)
	}
	pe, ok := e.(*PathExpr)
	if !ok || pe.Path.Source.Doc != "f.xml" {
		t.Fatalf("got %#v", e)
	}
}

func TestParseSimpleFLWOR(t *testing.T) {
	e, err := Parse(`for $b in doc("bib.xml")//book where $b/title = "TeX Book" return $b/author`)
	if err != nil {
		t.Fatal(err)
	}
	f := e.(*FLWOR)
	if len(f.Clauses) != 1 || f.Where == nil {
		t.Fatalf("f = %+v", f)
	}
	cmp, ok := f.Where.(xpath.Compare)
	if !ok || cmp.Op != xpath.OpEq || cmp.Right.Kind != xpath.OperandString {
		t.Fatalf("where = %#v", f.Where)
	}
	if _, ok := f.Return.(*PathExpr); !ok {
		t.Fatalf("return = %T", f.Return)
	}
}

func TestParseOrderBy(t *testing.T) {
	e, err := Parse(`for $b in doc("d")//book order by $b/title return $b`)
	if err != nil {
		t.Fatal(err)
	}
	f := e.(*FLWOR)
	if f.OrderBy == nil || f.OrderBy.Source.Var != "b" {
		t.Fatalf("order by = %v", f.OrderBy)
	}
	if !strings.Contains(f.String(), "order by $b/title") {
		t.Errorf("String = %q", f.String())
	}
}

func TestParseWhereForms(t *testing.T) {
	cases := []struct {
		where string
		check func(xpath.Expr) bool
	}{
		{`$a/x = $b/y`, func(c xpath.Expr) bool { _, ok := c.(xpath.Compare); return ok }},
		{`$a/x != "lit"`, func(c xpath.Expr) bool { cc, ok := c.(xpath.Compare); return ok && cc.Op == xpath.OpNeq }},
		{`$a << $b`, func(c xpath.Expr) bool { d, ok := c.(xpath.DocOrder); return ok && d.Before }},
		{`$a >> $b`, func(c xpath.Expr) bool { d, ok := c.(xpath.DocOrder); return ok && !d.Before }},
		{`exists($a/x)`, func(c xpath.Expr) bool { _, ok := c.(xpath.Exists); return ok }},
		{`$a/x`, func(c xpath.Expr) bool { _, ok := c.(xpath.Exists); return ok }},
		{`deep-equal($a, $b)`, func(c xpath.Expr) bool { _, ok := c.(xpath.DeepEqual); return ok }},
		{`not($a/x)`, func(c xpath.Expr) bool { _, ok := c.(xpath.Not); return ok }},
		{`$a/x = 1 or $a/y = 2`, func(c xpath.Expr) bool { _, ok := c.(xpath.Or); return ok }},
		{`($a/x = 1 or $a/y = 2) and $b/z`, func(c xpath.Expr) bool { _, ok := c.(xpath.And); return ok }},
		{`$a/x < 5`, func(c xpath.Expr) bool {
			cc, ok := c.(xpath.Compare)
			return ok && cc.Op == xpath.OpLt && cc.Right.Num == 5
		}},
		{`$a/x >= 5`, func(c xpath.Expr) bool { cc, ok := c.(xpath.Compare); return ok && cc.Op == xpath.OpGe }},
		{`"x" = $a/y`, func(c xpath.Expr) bool { cc, ok := c.(xpath.Compare); return ok && cc.Left.Kind == xpath.OperandString }},
	}
	for _, c := range cases {
		t.Run(c.where, func(t *testing.T) {
			q := `for $a in doc("d")//a, $b in doc("d")//b where ` + c.where + ` return $a`
			e, err := Parse(q)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			f := e.(*FLWOR)
			if !c.check(f.Where) {
				t.Errorf("where = %#v", f.Where)
			}
			if f.Where.String() == "" {
				t.Error("empty where String")
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for`,
		`for $x`,
		`for $x in`,
		`for $x in doc("d")//a`,                 // missing return
		`for $x in doc("d")//a return`,          // empty return
		`for $x in doc("d")//a where return $x`, // empty where
		`for $x in doc("d")//a order return $x`, // missing 'by'
		`for $x in doc("d")//a, in doc("d")//b return $x`,         // missing var
		`for $x in doc("d")//a, $x in doc("d")//b return $x`,      // duplicate var
		`for $x in $y//a return $x`,                               // unbound $y
		`let $x doc("d")//a return $x`,                            // missing :=
		`for $x in doc("d")//a where $x << "lit" return $x`,       // << on literal
		`for $x in doc("d")//a where "a" return $x`,               // bare literal condition
		`for $x in doc("d")//a where deep-equal($x) return $x`,    // arity
		`for $x in doc("d")//a return <p>{ $x }</q>`,              // mismatched ctor
		`for $x in doc("d")//a return <p>{ $x }`,                  // unterminated ctor
		`for $x in doc("d")//a return <p>text</p>`,                // literal text
		`<a>{ for $x in doc("d")//a return $x }</a> trailing`,     // trailing input
		`where $x return $x`,                                      // no clauses
		`for $x in doc("d")//a where not $x return $x and`,        // trailing and
		`for $x in doc("d")//a where $x = return $x`,              // missing operand
		`let $x := doc("d")//a, $y := $zzz/b return $x`,           // unbound in let list
		`for $x in doc("d")//a order by return $x`,                // empty order by
		`for $x in doc("d")//a where exists($x/b return $x`,       // unclosed exists
		`for $x in doc("d")//a where deep-equal($x, $x return $x`, // unclosed deep-equal
		`for $x in doc("d")//a where ($x/b and $x/c return $x`,    // unclosed paren
		`for $x in doc("d")//a return <p attr>{ $x }</p>`,         // junk in open tag
		`for $x in doc("d")//a return <>{ $x }</>`,                // missing tag name
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseSelfClosingCtor(t *testing.T) {
	e, err := Parse(`for $x in doc("d")//a return <empty/>`)
	if err != nil {
		t.Fatal(err)
	}
	f := e.(*FLWOR)
	c, ok := f.Return.(*ElemCtor)
	if !ok || c.Tag != "empty" || len(c.Content) != 0 {
		t.Fatalf("return = %#v", f.Return)
	}
}

func TestParseNestedCtor(t *testing.T) {
	e, err := Parse(`for $x in doc("d")//a return <out><in>{ $x }</in><mid>{ $x/b, $x/c }</mid></out>`)
	if err != nil {
		t.Fatal(err)
	}
	f := e.(*FLWOR)
	out := f.Return.(*ElemCtor)
	if len(out.Content) != 2 {
		t.Fatalf("out content = %d", len(out.Content))
	}
	in := out.Content[0].(*ElemCtor)
	if in.Tag != "in" || len(in.Content) != 1 {
		t.Fatalf("in = %#v", in)
	}
	mid := out.Content[1].(*ElemCtor)
	seq, ok := mid.Content[0].(*Sequence)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("mid content = %#v", mid.Content[0])
	}
	if !strings.Contains(seq.String(), ", ") {
		t.Errorf("Sequence.String = %q", seq.String())
	}
}

func TestCommaSeparatedLets(t *testing.T) {
	e, err := Parse(`let $x := doc("d")//a, $y := $x/b return $y`)
	if err != nil {
		t.Fatal(err)
	}
	f := e.(*FLWOR)
	if len(f.Clauses) != 2 || f.Clauses[1].Kind != LetClause || f.Clauses[1].Var != "y" {
		t.Fatalf("clauses = %+v", f.Clauses)
	}
}

func TestClauseKindString(t *testing.T) {
	if ForClause.String() != "for" || LetClause.String() != "let" {
		t.Error("ClauseKind.String wrong")
	}
}

func TestTextCtorString(t *testing.T) {
	tc := &TextCtor{Text: "hi"}
	if tc.String() != "hi" {
		t.Error("TextCtor.String wrong")
	}
	ec := &ElemCtor{Tag: "p", Content: []Expr{tc}}
	if got := ec.String(); got != "<p>hi</p>" {
		t.Errorf("ElemCtor.String = %q", got)
	}
}
