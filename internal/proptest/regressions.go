package proptest

// Regression is a (document, query) pair the randomized leg once failed
// on, minimized and pinned so it runs whatever the seed. The document is
// registered under the URI "d".
type Regression struct {
	Name, Doc, Query string
}

// Regressions is the one list of minimized differential findings. This
// package's TestRegressions checks each like a generated pair (every
// variant, cold and warm, against the navigational oracle); the
// executor's TestHarnessRegressions replays them over its strategy
// variants.
var Regressions = []Regression{
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
	// Harness seed 0x19f5cafdaa: PositionFilter counted instances
	// emitted by the matcher (after the @id existence check), while the
	// oracle applies [1] to all d elements and only then keeps those with
	// @id. Queries mixing a positional predicate with other filters now
	// fall back to the navigational evaluator.
	{
		"position-then-attr-tail",
		`<r><d/><d id="7"/></r>`,
		`//d[1]/@id`,
	},
	// Same shape with the predicate order flipped: the position test must
	// gate the candidate list before other predicates narrow it, so
	// position-after-predicate is outside the fragment.
	{
		"predicate-then-position",
		`<r><d id="7"/><d id="8"/><d/></r>`,
		`//d[@id][2]`,
	},
	// Seed 0x4f1c6de1d0: a comparison on an optional let-bound path must
	// drop rows where the path is empty (an empty operand makes every
	// comparison false). The planner kept such rows because the matcher
	// never evaluated the constraint on the unmatched optional vertex;
	// the where endpoint now upgrades its ancestor edges to mandatory.
	{
		"comparison-on-empty-let-path",
		`<r><a><b id="10"/></a><a><b id="3"/></a><a/></r>`,
		`for $x in doc("d")//a let $l := $x/b where $l/@id != "10" return $x`,
	},
	// Seed 0x216064b256: an exists() test over a let-bound path grew a
	// mandatory subtree under the binding vertex, so the binding only
	// projected the instances that satisfied the test. The oracle binds
	// the whole sequence and treats the condition existentially;
	// condition paths anchored at let variables are now inlined through
	// the definition into a parallel branch.
	{
		"exists-on-let-path-keeps-full-binding",
		`<r><d><a><b/></a><a/><a>t</a></d></r>`,
		`for $x in doc("d")//d let $l := $x/a where exists($l//b) return $l`,
	},
	// Same class via a value comparison: $l must bind both b children
	// even though only one satisfies the inequality.
	{
		"comparison-on-let-path-keeps-full-binding",
		`<r><a><b id="10"/><b id="3"/></a></r>`,
		`for $x in doc("d")//a let $l := $x/b where $l/@id != "10" return $l`,
	},
	// Seed 0xc97b5606e6: a bug in the ORACLE, not the planner. For a bare
	// variable operand like $l/@k, the navigational evaluator's
	// attribute-existence filter compacted the resolved node slice in
	// place — but that slice IS the environment's stored $l binding, so
	// the binding's backing array was scribbled over ([a1,a2] keeping a2
	// became [a2,a2]). The filter now copies.
	{
		"oracle-attr-filter-must-not-alias-binding",
		`<r><b><a/><a k="y"/></b></r>`,
		`for $x in doc("d")//b let $l := $x/a where $l/@k > "x" return $l`,
	},
	// Seed 0xec1778a75e: the σ_position stream selection was wired above
	// the cross-component join, so position() counted joined (x, y) pairs
	// instead of $x's own instances. The filter now wraps the target's
	// scan before any join.
	{
		"position-under-join",
		`<r><b><a/></b><c><b><a/></b><b/></c></r>`,
		`for $x in doc("d")//b[1], $y in doc("d")//c/b where $x << $y return $x/a`,
	},
}
