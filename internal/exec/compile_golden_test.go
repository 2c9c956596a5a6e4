package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blossomtree/internal/flwor"
	"blossomtree/internal/proptest"
	"blossomtree/internal/xmlgen"
)

// compileFLWORShapes are the benchmark's six FLWOR shapes (its
// flworQueries), with the document URIs filled in.
var compileFLWORShapes = []string{
	`for $t in doc("d5.xml")//phdthesis where exists($t/school) return <thesis>{ $t/author, $t/school }</thesis>`,
	`for $p in doc("d5.xml")//proceedings order by $p/title return <p>{ $p/title, $p/year }</p>`,
	`for $a in doc("d2.xml")//address let $c := $a//name_of_city where exists($a/zip_code) return <addr>{ $c, $a/zip_code }</addr>`,
	`for $p in doc("d5.xml")//proceedings, $q in doc("d5.xml")//proceedings where $p << $q and $p/publisher = $q/publisher and $p/year >= 1997 and $q/year >= 1997 return <pair>{ $p/title, $q/title }</pair>`,
	`for $a in doc("d5.xml")//article return <a>{ $a/title, $a/year }</a>`,
	`for $a at $i in doc("d2.xml")//address where $i < 100 return <n>{ $a/zip_code }</n>`,
}

// foreignForms are forms that belong to the other Boolean context: a
// where-clause's operands (variables, exists(), deep-equal(), <<, a
// leading literal) inside a path predicate, and a predicate's positions
// (a bare number, position()) or a bare literal in a where-clause.
var foreignForms = []string{
	`//a[exists(b)]`,
	`//a[deep-equal(b, c)]`,
	`//a[b << c]`,
	`//a[$x/b = 1]`,
	`//a[1 = b]`,
	`//a["x"]`,
	`for $x in doc("d")//a where 2 return $x`,
	`for $x in doc("d")//a where position() = 1 return $x`,
	`for $x in doc("d")//a where "a" return $x`,
	`for $x in doc("d")//a where $x/b << 1 return $x`,
}

// TestForeignFormsRejected pins the context rules of the Boolean
// grammar: each form foreign to its context stays a parse error.
func TestForeignFormsRejected(t *testing.T) {
	for _, src := range foreignForms {
		if _, err := flwor.Parse(src); err == nil {
			t.Errorf("%s: parsed, want a parse error", src)
		}
	}
}

// compileGoldenQueries lists the golden's queries: the Appendix-A
// suites, the benchmark's FLWOR shapes, the differential queries, the
// foreign forms and 300 generated queries at the pinned seed.
func compileGoldenQueries() []string {
	var qs []string
	for _, d := range []string{"d1", "d2", "d3", "d4", "d5"} {
		for _, q := range xmlgen.Suite(d) {
			qs = append(qs, q.Text)
		}
	}
	qs = append(qs, compileFLWORShapes...)
	qs = append(qs, differentialQueries...)
	qs = append(qs, foreignForms...)
	g := proptest.NewGen(rand.New(rand.NewSource(proptest.DefaultSeed)),
		[]string{"a", "b", "c", "d"}, []string{"id", "k"})
	for i := 0; i < 300; i++ {
		qs = append(qs, g.Query())
	}
	return qs
}

// TestCompileGolden pins what the compiler makes of each query: a parse
// rejection, the compile error verbatim, or the BlossomTree (crossings
// included) with its count of residual where-conditions and, for a
// positional variable, the row limit.
func TestCompileGolden(t *testing.T) {
	var sb strings.Builder
	for _, src := range compileGoldenQueries() {
		fmt.Fprintf(&sb, "query: %s\n", src)
		expr, err := flwor.Parse(src)
		if err != nil {
			sb.WriteString("rejected by the parser\n\n")
			continue
		}
		q, _, _, err := compile(expr)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n\n", err)
			continue
		}
		fmt.Fprintf(&sb, "%sresidual: %d\n", q.Tree, len(q.Residual))
		if limit, ok := q.RowLimit(); ok {
			fmt.Fprintf(&sb, "positional: $%s, limit %d\n", q.Pos, limit)
		} else if q.Pos != "" {
			fmt.Fprintf(&sb, "positional: $%s, no limit\n", q.Pos)
		}
		sb.WriteString("\n")
	}
	checkGolden(t, "compile", sb.String())
}
