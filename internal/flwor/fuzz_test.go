package flwor

import (
	"reflect"
	"strings"
	"testing"

	"blossomtree/internal/xpath"
)

// FuzzFLWORParse asserts the parser never panics on arbitrary input and
// that every accepted expression round-trips: parse → String → parse
// yields the same tree, which prints identically.
func FuzzFLWORParse(f *testing.F) {
	for _, seed := range []string{
		`for $x in doc("d")//a return $x`,
		`for $x in doc("d")//a, $y in doc("d")//b where $x << $y return $y`,
		`for $x in doc("d")//a where exists($x//b) return <r>{ $x }</r>`,
		`for $x in doc("d")//a let $c := $x//b return $x`,
		`for $b in doc("bib.xml")//book where $b/price < 50 order by $b/title return <t>{ $b/title }</t>`,
		`for $x in doc("d")//a where deep-equal($x/b, $x/c) and not($x/d = "z") return $x`,
		`<out>text{ //a }more</out>`,
		`//a[b]//c`,
		`for $x in doc("d")//a return <r>{ $x/b, $x/c }</r>`,
		// Positional variables.
		`for $x at $i in doc("d")//a where $i <= 3 return $x`,
		`for $x at $i in doc("d")//a, $y at $j in doc("d")//b where $i = $j return <r>{ $x }</r>`,
		// Function calls in conditions.
		`for $x in doc("d")//a where contains($x/b, "w") return $x`,
		`for $x in doc("d")//a where count($x/b) > 1 and starts-with($x/@id, "z") return $x`,
		`for $x in doc("d")//a where number($x/@n) >= 10 return $x`,
		`for $x in doc("d")//a where string-join($x/b, ",") != "" return $x`,
		// Attribute value tests and upward axes.
		`for $x in doc("d")//a where $x/@id = $x/b/@id return $x/@id`,
		`for $x in doc("d")//b/parent::a return $x`,
		`for $x in doc("d")//c where exists($x/ancestor::a) return $x`,
		// Let chains over the wider surface.
		`for $x in doc("d")//a let $l := $x//b where exists($l//c) return $l`,
		// Boolean structure the printer must parenthesize.
		`for $x in doc("d")//a where ($x/b = 1 or $x/c = 2) and $x/d return $x`,
		`for $x in doc("d")//a where $x/b or ($x/c or not($x/d and ($x/e or $x/f))) return $x`,
	} {
		f.Add(seed)
	}
	// Depth-bound seeds: nesting past xpath.MaxDepth must be rejected,
	// not overflow the stack (see depth_test.go).
	f.Add(strings.Repeat("<a>", xpath.MaxDepth+8))
	f.Add(strings.Repeat("for $x in //a return ", xpath.MaxDepth+8))
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return // rejected input only needs to not panic
		}
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse:\n  input  %q\n  printed %q\n  error  %v", src, printed, err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("printed form reparses to a different tree:\n  input   %q\n  printed %q", src, printed)
		}
		if again := e2.String(); again != printed {
			t.Fatalf("printer is not a fixpoint:\n  input   %q\n  printed %q\n  reprint %q", src, printed, again)
		}
	})
}
