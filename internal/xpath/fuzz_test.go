package xpath

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzXPathParse asserts two properties over arbitrary input: the parser
// never panics, and any path it accepts round-trips through the printer
// — parse → String → parse yields the same tree, which prints
// identically, so the printed form is a fixpoint of the grammar.
func FuzzXPathParse(f *testing.F) {
	for _, seed := range []string{
		"//a",
		"//a//b/c",
		"/a/b[c]/@id",
		`doc("bib.xml")//book[author/last="Knuth"]/title`,
		"$x//b[2]",
		"//a[.//b and not(c)]",
		"//a[b/@n=1.5 or c]",
		"//a/following-sibling::b",
		"//a[price<49.99]",
		"//*[b]",
		".",
		"//a['it''s'!=\"x\"]",
		// Function calls in predicates.
		`//a[contains(b, "x")]`,
		`//a[starts-with(@id, "1")]`,
		`//a[count(b) >= 2]`,
		`//a[number(@n) < 3.5]`,
		`//a[string-join(b, "-") = "x-y"]`,
		`//book[name() = "book"]`,
		// Upward axes.
		"//a/b/..",
		"//b/parent::a/c",
		"//c/ancestor::a",
		"//c/ancestor::*[b]",
		// Positional predicates, mixed with other shapes.
		"//a[1]",
		"//a/b[2]/c",
		"//a[@id][3]",
		// Boolean structure the printer must parenthesize.
		"//a[(b or c) and d]",
		"//a[b or (c or d)]",
		"//a[b and (c and d)]",
		"//a[not((b or c) and d)]",
	} {
		f.Add(seed)
	}
	// Depth-bound seeds: nesting past MaxDepth must be rejected, not
	// overflow the stack (see depth_test.go).
	f.Add(strings.Repeat("//a[", MaxDepth+8))
	f.Add("//a[" + strings.Repeat("(", MaxDepth+8))
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejected input only needs to not panic
		}
		printed := p.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse:\n  input  %q\n  printed %q\n  error  %v", src, printed, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("printed form reparses to a different tree:\n  input   %q\n  printed %q", src, printed)
		}
		if again := p2.String(); again != printed {
			t.Fatalf("printer is not a fixpoint:\n  input   %q\n  printed %q\n  reprint %q", src, printed, again)
		}
	})
}
