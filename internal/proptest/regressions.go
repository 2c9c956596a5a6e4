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
	// Return and order-by paths read their endpoint's cell when the
	// compiler finds the cell exactly the path's node set, and navigate
	// otherwise. Each pair pins one side of that decision. A vertex a
	// where-clause narrows must navigate: exists($x/a/b) shares the
	// return path's a and keeps only the a that has a b; a value
	// comparison gets a vertex of its own, so the return path's a stays
	// exact.
	{
		"cell/narrowed-reuse-navigates",
		`<r><x><a><b/></a><a>no b</a></x><x><a/></x></r>`,
		`for $x in doc("d")//x where exists($x/a/b) return <r>{ $x/a }</r>`,
	},
	{
		"cell/value-comparison-keeps-return-path-exact",
		`<r><x><a>v</a><a>w</a></x><x><a>w</a></x></r>`,
		`for $x in doc("d")//x where $x/a = "v" return <r>{ $x/a }</r>`,
	},
	// A returned let group, and a path below it, over nested matches.
	{
		"cell/returned-let-group",
		`<r><x><a><a><b>1</b></a><b>2</b></a><c><a/></c></x><x/></r>`,
		`for $x in doc("d")//x let $l := $x//a return <r>{ $l }{ $l/b }</r>`,
	},
	// Descendant and two-step return paths. Under nested matches a cell
	// is neither in document order nor free of repeats as the instance
	// holds it.
	{
		"cell/descendant-return-path",
		`<r><x><t><t>1</t></t><u><t>2</t></u><x><t>3</t></x></x></r>`,
		`for $x in doc("d")//x return <r>{ $x//t }</r>`,
	},
	{
		"cell/two-step-return-path",
		`<r><x><a><b>1</b><b>2</b></a><a><b>3</b></a></x><x><a/></x></r>`,
		`for $x in doc("d")//x return <r>{ $x/a/b }</r>`,
	},
	{
		"cell/descendant-then-child-under-nesting",
		`<r><x><a><b>1</b><a><b>2</b></a><b>3</b></a></x></r>`,
		`for $x in doc("d")//x return <r>{ $x//a/b }</r>`,
	},
	// A trailing text() or attribute step is re-applied to the cell.
	{
		"cell/text-tail",
		`<r><x><a>one<b>in</b>two</a><a>three</a></x><x><a><a>inner</a>outer</a></x></r>`,
		`for $x in doc("d")//x return <r>{ $x/a/text() }{ $x//a//text() }</r>`,
	},
	{
		"cell/attribute-tail",
		`<r><x id="0"><a id="1"/><a/><a id="3"><c/></a></x><x><a/></x></r>`,
		`for $x in doc("d")//x return <r>{ $x/a/@id }{ $x/@id }</r>`,
	},
	// The order-by key is the first match in document order.
	{
		"cell/order-by-several-matches",
		`<r><x><k>b</k><k>a</k></x><x><k>a</k></x><x><k>10</k><k>9</k></x><x/><x><j><k>0</k></j><k>c</k></x></r>`,
		`for $x in doc("d")//x order by $x/k return <r>{ $x/k }</r>`,
	},
	// A FLWOR that constructs nothing answers its return path's nodes.
	{
		"cell/bare-return",
		`<r><x><a>1</a><a>2</a></x><x><a>3</a></x><x/></r>`,
		`for $x in doc("d")//x return $x/a`,
	},
	// A positional variable numbers the for-clause's bindings before the
	// where-clause filters them: a conjunct on $x pushed into the
	// pattern would drop the b-less x elements before they are counted.
	// Over a bare scan the limit stops the scan; below a join only the
	// executor's truncation applies it.
	{
		"positional/narrowing-trap",
		`<r><x><b/></x><x/><x><b/></x><x/><x><b/></x><x><b/></x></r>`,
		`for $x at $i in doc("d")//x where exists($x/b) and $i < 4 return <r>{ $i }{ $x }</r>`,
	},
	{
		"positional/narrowing-trap-below-join",
		`<r><x><y><b/></y><y/></x><x><y/><y><b/></y><y><b/></y></x></r>`,
		`for $y at $i in doc("d")//x//y where exists($y/b) and $i < 4 return <r>{ $i }{ $y }</r>`,
	},
	// With a second for-clause the ordinal restarts within each outer
	// binding, which no planned row order numbers: the query runs
	// navigationally.
	{
		"positional/two-for-clauses",
		`<r><x><b>1</b><b>2</b></x><x/><x><b>3</b></x></r>`,
		`for $x at $i in doc("d")//x, $y in $x/b where $i < 3 return <r>{ $i }{ $y }</r>`,
	},
	// A doc-root for-clause and a scan-linked one used to be joined on
	// their first crossing while the links were still being wired, so the
	// crossing on $a/w[.//z] compared the w matches before the //-link
	// below w pruned the ones without a z: the planned strategies kept a
	// row the oracle drops. The components now join after every link.
	{
		"crossing/doc-root-clause-joined-after-links",
		`<r><x><v>1</v><w>a</w><w>b<z/></w></x><y><v>1</v><w>a</w></y><y><v>1</v><w>q</w></y></r>`,
		`for $a in doc("d")/r/x, $b in doc("d")//y where $a/w[.//z] = $b/w and $a/v = $b/v return <p>{ $b/w }</p>`,
	},
	// A where-conjunct shared the vertex a crossing reads and narrowed it:
	// exists($a/w//z) (or $a/w/z) kept only the w's with a z, so the
	// crossing $a/w = $b/w missed the w that matches, whichever conjunct
	// came first; so did the w of a for-clause predicate [w/z]. The same
	// sharing made two exists() over one prefix ask for one w holding
	// both. Each conjunct now ranges over its own matches.
	{
		"crossing/narrowed-by-descendant-exists",
		`<r><x><v>1</v><w>a</w><w>b<z/></w></x><y><v>1</v><w>a</w></y><y><v>1</v><w>q</w></y></r>`,
		`for $a in doc("d")//x, $b in doc("d")//y where $a/v = $b/v and $a/w = $b/w and exists($a/w//z) return <p>{ $b/w }</p>`,
	},
	{
		"crossing/narrowed-by-child-exists",
		`<r><x><v>1</v><w>a</w><w>b<z/></w></x><y><v>1</v><w>a</w></y><y><v>1</v><w>q</w></y></r>`,
		`for $a in doc("d")//x, $b in doc("d")//y where $a/v = $b/v and $a/w = $b/w and exists($a/w/z) return <p>{ $b/w }</p>`,
	},
	{
		"crossing/narrowed-by-earlier-exists",
		`<r><x><v>1</v><w>a</w><w>b<z/></w></x><y><v>1</v><w>a</w></y><y><v>1</v><w>q</w></y></r>`,
		`for $a in doc("d")//x, $b in doc("d")//y where exists($a/w//z) and $a/w = $b/w and $a/v = $b/v return <p>{ $b/w }</p>`,
	},
	{
		"crossing/narrowed-by-for-predicate",
		`<r><x><v>1</v><w>a</w><w>b<z/></w></x><y><v>1</v><w>a</w></y><y><v>1</v><w>q</w></y></r>`,
		`for $a in doc("d")//x[w/z], $b in doc("d")//y where $a/w = $b/w return <p>{ $b/w }</p>`,
	},
	{
		"exists/two-over-one-prefix",
		`<r><x><w><z/></w><w><y/></w></x><x><w><z/><y/></w></x></r>`,
		`for $a in doc("d")//x where exists($a/w//z) and exists($a/w/y) return $a`,
	},
	// The bounded nested-loop join is the pipelined join re-reading its
	// inner inside each outer instance's region. Nested outer items —
	// across instances (each a its own for-binding or predicate context)
	// or inside one (every a under $r in one group) — share inner
	// matches: each instance must find the b's of its own region, and an
	// inner goes below the innermost item holding it while every item
	// holding it is witnessed.
	{
		"bounded-nl/nested-outer-let",
		`<r><a id="1"><a id="2"><b id="x"/></a><b id="y"/></a></r>`,
		`for $a in doc("d")//a let $b := $a//b return <o>{ $b }</o>`,
	},
	{
		"bounded-nl/nested-outer-predicate",
		`<r><a id="1"><a id="2"><b id="x"/></a><b id="y"/></a><a id="3"/></r>`,
		`//a[.//b]`,
	},
	{
		"bounded-nl/nested-outer-for",
		`<r><a id="1"><a id="2"><b id="x"/></a><b id="y"/></a></r>`,
		`for $a in doc("d")//a, $b in $a//b return <p>{ $a/@id }{ $b }</p>`,
	},
	// On a recursive document one instance can list its outer items out
	// of document order: under the a, the b's of c/b come outer c first,
	// so the b inside the nested c follows the empty b's around it, and a
	// forward merge skipped the c below it (three of d1's and d4's forced
	// NL cells in the benchmark's grid). The rescanning join sorts them.
	{
		"bounded-nl/slot-out-of-document-order",
		`<r><a><c><b/><x><c><b><c id="1"/></b></c></x><b/></c></a></r>`,
		`//a//c/b//c`,
	},
	{
		"bounded-nl/slot-out-of-document-order-pruned",
		`<r><a><c><b/><x><c><b><c id="1"/></b></c></x><b/></c></a></r>`,
		`for $a in //a let $b := $a//c/b[.//c] return <o>{ $b }</o>`,
	},
	{
		"bounded-nl/nested-items-one-instance",
		`<r><a id="1"><a id="2"><b id="x"/></a><c/></a><a id="3"><b id="y"/></a></r>`,
		`for $r in doc("d")/r let $a := $r//a[.//b] return <o>{ $a/@id }</o>`,
	},
}
