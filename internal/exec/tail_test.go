package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// TestFLWORTailAllocsAreFlat measures the FLWOR tail alone — rows from
// the plan's instances, iteration order, construction — on an
// F5-shaped query (one for-variable, two return paths with exact cells)
// and an F2-shaped one (the same, ordered by a path's string value)
// over N and 2N matching elements. The rows, the order-by keys and the
// output are a few buffers that grow with N, not objects per row:
// allocations per row stay under tailAllocsPerRow and do not grow with N.
func TestFLWORTailAllocsAreFlat(t *testing.T) {
	const tailAllocsPerRow = 0.05
	for _, c := range []struct{ name, query string }{
		{"F5", `for $a in doc("d")//article return <a>{ $a/title, $a/year }</a>`},
		{"F2", `for $a in doc("d")//article order by $a/year return <a>{ $a/title, $a/year }</a>`},
	} {
		t.Run(c.name, func(t *testing.T) { tailAllocsAreFlat(t, c.query, tailAllocsPerRow) })
	}
}

func tailAllocsAreFlat(t *testing.T, query string, tailAllocsPerRow float64) {
	measure := func(n int) float64 {
		var sb strings.Builder
		sb.WriteString("<dblp>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "<article><author>a%d</author><title>t%d</title><year>%d</year></article>", i, i, 1990+i%30)
		}
		sb.WriteString("</dblp>")
		doc, err := xmltree.ParseString(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		e.Add("d", doc)
		q, err := parse(query)
		if err != nil {
			t.Fatal(err)
		}
		s := e.snapshot()
		c, _, err := compiledFor(s, q, plan.Options{})
		if err != nil || c.tail == nil {
			t.Fatalf("N=%d: compile: %v", n, err)
		}
		pl := c.tmpl.Fork(plan.Options{})
		ins, err := pl.Execute()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			res := &Result{Query: c.q, Plan: pl, Instances: ins}
			if err := finishFLWOR(s, c, res, nil, false); err != nil || res.Len() != n || res.Output == nil {
				t.Fatalf("N=%d: %d rows (err %v), want %d", n, res.Len(), err, n)
			}
		})
		return allocs / float64(n)
	}
	small, large := measure(1000), measure(2000)
	t.Logf("N=1000: %.3f allocs/row; N=2000: %.3f allocs/row", small, large)
	if small > tailAllocsPerRow || large > tailAllocsPerRow {
		t.Errorf("tail allocations per row %.3f (N) and %.3f (2N), want <= %.2f", small, large, tailAllocsPerRow)
	}
	if large > small*1.25 {
		t.Errorf("tail allocations per row grew with N: %.3f -> %.3f", small, large)
	}
}

// TestNestedReturnCellsAllocateLinearly: rows come in document order, so
// on a recursive document the first row can be the outermost match,
// whose cell holds every other row's nodes. Here one section holds N-1
// sections, each with one title, and every row returns $s//title: the
// output has about 3N items, and the tail must allocate bytes in
// proportion to that, not to N rows the size of the first.
func TestNestedReturnCellsAllocateLinearly(t *testing.T) {
	const tailBytesPerRow = 1024
	const query = `for $s in doc("d")//section return <r>{ $s//title }</r>`
	measure := func(n int) float64 {
		var sb strings.Builder
		sb.WriteString("<root><section><title>t0</title>")
		for i := 1; i < n; i++ {
			fmt.Fprintf(&sb, "<section><title>t%d</title></section>", i)
		}
		sb.WriteString("</section></root>")
		doc, err := xmltree.ParseString(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		e.Add("d", doc)
		q, err := parse(query)
		if err != nil {
			t.Fatal(err)
		}
		s := e.snapshot()
		c, _, err := compiledFor(s, q, plan.Options{})
		if err != nil || c.tail == nil {
			t.Fatalf("N=%d: compile: %v", n, err)
		}
		pl := c.tmpl.Fork(plan.Options{})
		ins, err := pl.Execute()
		if err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			res := &Result{Query: c.q, Plan: pl, Instances: ins}
			if err := finishFLWOR(s, c, res, nil, false); err != nil || res.Len() != n || res.Output == nil {
				t.Fatalf("N=%d: %d rows (err %v), want %d", n, res.Len(), err, n)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n)
	}
	small, large := measure(1000), measure(2000)
	t.Logf("N=1000: %.0f bytes/row; N=2000: %.0f bytes/row", small, large)
	if small > tailBytesPerRow || large > tailBytesPerRow {
		t.Errorf("tail bytes per row %.0f (N) and %.0f (2N), want <= %d", small, large, tailBytesPerRow)
	}
	if large > small*1.5 {
		t.Errorf("tail bytes per row grew with N: %.0f -> %.0f", small, large)
	}
}
