// Package proptest is the randomized differential harness: it generates
// random documents (internal/xmlgen) and random XPath/FLWOR queries over
// each document's actual tag and attribute alphabet, then evaluates every
// (document, query) pair under every join strategy — cold and warm
// against the plan cache — and requires byte-identical canonical results
// (exec.Canonical) against the navigational oracle.
//
// Generation is deterministic in a base seed: case i derives its own
// seed (base + i·GoldenGamma), and one *rand.Rand per case drives both
// the document and its queries, so any failure reproduces from the case
// seed alone regardless of how many cases ran before it. The pinned CI
// seed is DefaultSeed; a second CI job runs with a randomized seed and
// logs it on failure (see EXPERIMENTS.md).
package proptest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// DefaultSeed is the pinned base seed ("BlOSS0" in hexspeak) used by
// `make proptest` and the fixed-seed CI job.
const DefaultSeed int64 = 0xB10550

// GoldenGamma spaces per-case seeds along the base seed (Weyl sequence
// constant), so neighboring cases decorrelate.
const GoldenGamma int64 = 0x9E3779B9

// Gen generates random queries over a fixed tag and attribute alphabet —
// the same alphabet the paired document was generated from, so paths
// actually match and comparisons actually collide.
type Gen struct {
	r     *rand.Rand
	tags  []string
	attrs []string
	// recurring are the tags that occur under themselves in the
	// document: path queries put child steps below them (see chain).
	recurring []string
}

// NewGen returns a generator drawing from r over the given alphabets.
func NewGen(r *rand.Rand, tags, attrs []string) *Gen {
	return &Gen{r: r, tags: tags, attrs: attrs}
}

// Recurring makes g draw, among its path queries, child steps below the
// given tags, which must occur under themselves in the queried
// document (RecurringTags).
func (g *Gen) Recurring(tags []string) *Gen {
	g.recurring = tags
	return g
}

// RecurringTags lists the tags of doc that occur under themselves, in
// the order their first such element occurs.
func RecurringTags(doc *xmltree.Document) []string {
	var out []string
	open := map[string]int{} // open elements per tag on the current path
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Kind != xmltree.ElementNode {
			return
		}
		if open[n.Tag] == 1 && !slices.Contains(out, n.Tag) {
			out = append(out, n.Tag)
		}
		open[n.Tag]++
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c)
		}
		open[n.Tag]--
	}
	walk(doc.DocumentElement())
	return out
}

func (g *Gen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }
func (g *Gen) tag() string             { return g.pick(g.tags) }
func (g *Gen) attr() string            { return g.pick(g.attrs) }

// pct reports true with probability p percent.
func (g *Gen) pct(p int) bool { return g.r.Intn(100) < p }

// word returns a string literal from the document text vocabulary.
func (g *Gen) word() string { return g.pick(xmlgen.Words()) }

// substr returns a short literal likely to be a substring/prefix of
// document text or attribute values.
func (g *Gen) substr() string {
	return g.pick([]string{"a", "e", "o", "x", "1", "al", "ta", "z"})
}

// attrVal returns a literal from the attribute-value alphabet.
func (g *Gen) attrVal() string { return g.pick(xmlgen.AttrValues()) }

// Query returns one random query: a path query or a FLWOR query.
func (g *Gen) Query() string {
	if g.pct(45) {
		return g.pathQuery()
	}
	return g.flworQuery()
}

// pathQuery generates an absolute path with a mix of child/descendant
// steps, wildcards, predicates, and upward/value tails.
func (g *Gen) pathQuery() string {
	if len(g.recurring) > 0 && g.pct(25) {
		return g.chain()
	}
	var sb strings.Builder
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		sb.WriteString(g.sep())
		sb.WriteString(g.step())
	}
	// Optional tail: text(), a trailing attribute, or an upward step.
	switch {
	case g.pct(10):
		sb.WriteString(g.sep())
		sb.WriteString("text()")
	case g.pct(10):
		fmt.Fprintf(&sb, "/@%s", g.attr())
	case g.pct(12):
		switch g.r.Intn(3) {
		case 0:
			sb.WriteString("/..")
		case 1:
			fmt.Fprintf(&sb, "/parent::%s", g.tag())
		default:
			fmt.Fprintf(&sb, "/ancestor::%s", g.tag())
		}
	}
	return sb.String()
}

// chain generates a child step between two //-steps below a recurring
// tag, after a leading //-step: //a//c/b//c with c recurring. The
// //-join below the child step has it as its outer slot, and one
// instance of the leading step holds that slot's items for every c under
// it, nested c's included, so they need not come in document order:
// the shape that broke the rescanning nested-loop join. The child step
// carries no predicate, which would rarely let its items nest.
func (g *Gen) chain() string {
	lead := g.step()
	rec := g.pick(g.recurring)
	last := rec
	if g.pct(50) {
		last = g.tag()
	}
	return fmt.Sprintf("//%s//%s/%s//%s", lead, rec, g.tag(), last)
}

// sep picks the step separator, descendant-heavy so random paths hit
// nodes in random trees.
func (g *Gen) sep() string {
	if g.pct(60) {
		return "//"
	}
	return "/"
}

// step generates one downward step with an optional predicate.
func (g *Gen) step() string {
	test := g.tag()
	if g.pct(8) {
		test = "*"
	}
	if !g.pct(30) {
		return test
	}
	return test + "[" + g.boolean(2, g.pred) + "]"
}

// boolean joins up to n atoms into a Boolean expression: mostly a single
// atom, otherwise a conjunction, a disjunction (bare or parenthesized)
// or not(… and …) of smaller expressions.
func (g *Gen) boolean(n int, atom func() string) string {
	if n < 2 || !g.pct(30) {
		return atom()
	}
	k := 1 + g.r.Intn(n-1) // atoms on the left
	l, r := g.boolean(k, atom), g.boolean(n-k, atom)
	switch g.r.Intn(5) {
	case 0:
		return "not(" + l + " and " + r + ")"
	case 1:
		return "(" + l + " or " + r + ")"
	case 2:
		return l + " or " + r
	default:
		return l + " and " + r
	}
}

// pred generates one path predicate, spanning the planned fragment
// (existence, value, attribute, position) and the navigational-fallback
// fragment (function calls).
func (g *Gen) pred() string {
	switch g.r.Intn(10) {
	case 0:
		return g.tag()
	case 1:
		return fmt.Sprintf("%s = %q", g.tag(), g.word())
	case 2:
		return "@" + g.attr()
	case 3:
		return fmt.Sprintf("@%s = %q", g.attr(), g.attrVal())
	case 4:
		return fmt.Sprintf("%d", 1+g.r.Intn(3))
	case 5:
		return fmt.Sprintf("contains(%s, %q)", g.tag(), g.substr())
	case 6:
		return fmt.Sprintf("starts-with(@%s, %q)", g.attr(), g.substr())
	case 7:
		return fmt.Sprintf("count(%s) %s %d", g.tag(), g.cmpOp(), g.r.Intn(3))
	case 8:
		return fmt.Sprintf("number(@%s) %s %d", g.attr(), g.cmpOp(), 1+g.r.Intn(10))
	default:
		return "//" + g.tag()
	}
}

func (g *Gen) cmpOp() string {
	return g.pick([]string{"=", "!=", "<", "<=", ">", ">="})
}

// relSteps generates the relative tail of a for/let binding path.
func (g *Gen) relSteps() string {
	var sb strings.Builder
	n := 1 + g.r.Intn(2)
	for i := 0; i < n; i++ {
		sb.WriteString(g.sep())
		sb.WriteString(g.step())
	}
	return sb.String()
}

// flworQuery generates a FLWOR expression: one or two for-clauses (the
// first optionally with a positional variable, the second over the
// document or below $x), an optional let, an optional where of up to
// three conditions over the bound variables, optional order by, and a
// return.
func (g *Gen) flworQuery() string {
	two := g.pct(45)
	pos := g.pct(20)
	hasLet := g.pct(25)

	var sb strings.Builder
	sb.WriteString("for $x ")
	if pos {
		sb.WriteString("at $i ")
	}
	fmt.Fprintf(&sb, `in doc("d")%s`, g.relSteps())
	if two {
		// Half the second clauses depend on $x, so both variables bind in
		// one pattern tree (the shape TwigStack plans with two kept
		// vertices); the other half start a second tree at the document.
		src := `doc("d")`
		if g.pct(50) {
			src = "$x"
		}
		fmt.Fprintf(&sb, ", $y in %s%s", src, g.relSteps())
	}
	if hasLet {
		fmt.Fprintf(&sb, " let $l := $x%s%s", g.sep(), g.tag())
	}
	if g.pct(70) {
		sb.WriteString(" where ")
		sb.WriteString(g.boolean(3, func() string { return g.cond(two, pos, hasLet) }))
	}
	if g.pct(15) {
		fmt.Fprintf(&sb, " order by $x/%s", g.tag())
		if g.pct(30) {
			sb.WriteString(" descending")
		}
	}
	sb.WriteString(" return ")
	sb.WriteString(g.ret(two))
	return sb.String()
}

// v picks a path-valued variable usable in conditions.
func (g *Gen) v(two, hasLet bool) string {
	vars := []string{"$x"}
	if two {
		vars = append(vars, "$y")
	}
	if hasLet {
		vars = append(vars, "$l")
	}
	return g.pick(vars)
}

// cond generates one where-condition over the bound variables, covering
// crossings (value, doc-order, deep-equal), vertex constraints, residual
// shapes (not, or, functions) and positional-variable comparisons.
func (g *Gen) cond(two, pos, hasLet bool) string {
	if pos && g.pct(20) {
		return fmt.Sprintf("$i %s %d", g.cmpOp(), 1+g.r.Intn(4))
	}
	switch g.r.Intn(11) {
	case 0:
		return fmt.Sprintf("%s/%s %s %q", g.v(two, hasLet), g.tag(), g.cmpOp(), g.word())
	case 1:
		if two {
			return fmt.Sprintf("$x%s%s %s $y%s%s", g.sep(), g.tag(), g.pick([]string{"=", "!=", "<"}), g.sep(), g.tag())
		}
		return fmt.Sprintf("exists($x%s%s)", g.sep(), g.tag())
	case 2:
		if two {
			return fmt.Sprintf("$x/@%s = $y/@%s", g.attr(), g.attr())
		}
		return fmt.Sprintf("$x/@%s = %q", g.attr(), g.attrVal())
	case 3:
		return fmt.Sprintf("%s/@%s %s %q", g.v(two, hasLet), g.attr(), g.cmpOp(), g.attrVal())
	case 4:
		if two {
			if g.pct(50) {
				return "$x << $y"
			}
			return "$x >> $y"
		}
		return fmt.Sprintf("exists(%s//%s)", g.v(two, hasLet), g.tag())
	case 5:
		if two {
			return fmt.Sprintf("deep-equal($x%s%s, $y%s%s)", g.sep(), g.tag(), g.sep(), g.tag())
		}
		return fmt.Sprintf("deep-equal($x/%s, $x/%s)", g.tag(), g.tag())
	case 6:
		return fmt.Sprintf("not(%s)", g.cond(two, false, hasLet))
	case 7:
		return fmt.Sprintf("contains(%s/%s, %q)", g.v(two, hasLet), g.tag(), g.substr())
	case 8:
		return fmt.Sprintf("count(%s%s%s) %s %d", g.v(two, hasLet), g.sep(), g.tag(), g.cmpOp(), g.r.Intn(3))
	case 9:
		return fmt.Sprintf("number(%s/@%s) %s %d", g.v(two, hasLet), g.attr(), g.cmpOp(), 1+g.r.Intn(10))
	default:
		if g.pct(50) {
			return fmt.Sprintf("starts-with(%s/%s, %q)", g.v(two, hasLet), g.tag(), g.substr())
		}
		return fmt.Sprintf("string-join(%s/%s, %q) != %q", g.v(two, hasLet), g.tag(), "-", "")
	}
}

// ret generates the return clause. Cases 4 and 5 end in an attribute
// step (on a variable; below a child step), which must never cost the row.
func (g *Gen) ret(two bool) string {
	switch g.r.Intn(7) {
	case 0:
		return "$x"
	case 1:
		return fmt.Sprintf("$x/%s", g.tag())
	case 2:
		return "<r>{ $x }</r>"
	case 3:
		if two {
			return fmt.Sprintf("<r>{ $x/%s }{ $y }</r>", g.tag())
		}
		return fmt.Sprintf("<r>{ $x/%s/text() }</r>", g.tag())
	case 4:
		return fmt.Sprintf("<r>{ %s/@%s }</r>", g.v(two, false), g.attr())
	case 5:
		return fmt.Sprintf("<r>{ $x }{ $x%s%s/@%s }</r>", g.sep(), g.tag(), g.attr())
	default:
		if two {
			return "<r>{ $x }{ $y }</r>"
		}
		return fmt.Sprintf("<r>{ $x/%s }</r>", g.tag())
	}
}
