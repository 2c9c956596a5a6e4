package proptest

import (
	"testing"

	"blossomtree/internal/exec"
	"blossomtree/internal/xmltree"
)

// regressions are (document, query) pairs the randomized leg once
// failed on, minimized and pinned so they run whatever the seed. Each is
// checked like a generated pair: every variant, cold and warm, against
// the navigational oracle.
var regressions = []struct {
	name, doc, query string
}{
	// PROPSEED=777123, case seeds 0x9a8238ba4d and 0x3af1ebb7069: a let
	// path and an exists() over the same path unify into one vertex on a
	// mandatory edge, which made the query TwigStack-compatible; the
	// twig emits one match per witness and the row dedup kept the first,
	// so $l was bound to one node instead of the whole sequence. The
	// documents are recursive so that Auto and the cost model plan TS.
	{
		"let-exists-unified/predicates",
		`<r><b><a/><c><b>x</b></c><c/><b/></b><b><c/></b></r>`,
		`for $x in doc("d")//b[//a] let $l := $x//c where $l/b != "foxtrot" and exists($x//c) return <r>{ $x }</r>`,
	},
	{
		"let-exists-unified/bare",
		`<c><a id="1"/><b><a id="2"><a/></a></b></c>`,
		`for $x in doc("d")/c let $l := $x//a where exists($x//a) return <r>{ $x }</r>`,
	},
	// A path ending in an attribute step compiles to an existence
	// constraint on the element carrying the attribute. It used to land
	// on whatever vertex the path reached — the variable's own vertex, or
	// a child vertex another clause had bound — and filter that binding:
	// the planned strategies dropped rows (or bindings) the oracle keeps.
	// The generator emitted no attribute tails in return clauses then.
	{
		"attr-tail/return-on-variable",
		`<r><x id="1"><y/></x><x><y/></x><x id="3"><y/></x></r>`,
		`for $x in doc("d")//x return <o>{ $x/@id }</o>`,
	},
	{
		"attr-tail/return-below-where-bound-child",
		`<r><x id="1"><y id="a"/></x><x><y/></x><x id="3"><y/><y id="b"/></x></r>`,
		`for $x in doc("d")//x where $x/y return <o>{ $x/y/@id }</o>`,
	},
	{
		"attr-tail/where-below-for-bound-child",
		`<r><x id="1"><y id="a"/></x><x><y/></x><x id="3"><y/><y id="b"/></x></r>`,
		`for $x in doc("d")//x, $y in $x/y where $x/y/@id return <o>{ $y }</o>`,
	},
	// A let whose path takes no step off its variable's vertex — an
	// attribute step directly on the variable, or the variable alone —
	// would share that vertex, which carries one binding and cannot be
	// $x and "$x where it has the attribute" at once: every planned
	// strategy failed with "no returning node for variable $a". It now
	// routes to the navigational evaluator. The generator draws let paths
	// with at least one element step, so it never produced this shape.
	{
		"let-attr-on-variable/bare",
		`<r><x id="1"><y id="a"/></x><x id="2"/><x/></r>`,
		`for $x in doc("d")//x let $a := $x/@id return $a`,
	},
	{
		"let-attr-on-variable/constructor",
		`<r><x id="1"><y id="a"/></x><x id="2"/><x/></r>`,
		`for $x in doc("d")//x let $a := $x/@id return <o>{ $a }</o>`,
	},
	{
		"let-attr-on-variable/alias",
		`<r><x id="1"><y id="a"/></x><x id="2"/><x/></r>`,
		`for $x in doc("d")//x let $a := $x return <o>{ $a }</o>`,
	},
	// The generator's dependent second for-clause ($y in $x…) found two
	// ways the planned strategies merged or dropped $y rows. A //-join
	// whose inner NoK binds $y below its root grouped the inner matches
	// under one outer match, putting every a in one row; and a where path
	// equal to $y's ($x/b) reused $y's vertex, so the comparison read $y
	// instead of ranging over all b children of $x.
	{
		"dependent-for/bound-below-inner-root",
		`<r><c><b><a/><a/></b></c></r>`,
		`for $x in doc("d")//c, $y in $x//b/a return <o>{ $y }</o>`,
	},
	{
		"dependent-for/where-path-of-for-variable",
		`<r><b><b><c>1</c></b><b><c>2</c></b></b></r>`,
		`for $x in doc("d")/r/b, $y in $x/b where $x/b != $y/c return $y`,
	},
}

func TestRegressions(t *testing.T) {
	for _, c := range regressions {
		t.Run(c.name, func(t *testing.T) {
			doc, err := xmltree.ParseString(c.doc)
			if err != nil {
				t.Fatal(err)
			}
			e := exec.New()
			e.Add("d", doc)
			runPair(t, e, doc, xmltree.ComputeStats(doc).Recursive, c.query, 0)
		})
	}
}
