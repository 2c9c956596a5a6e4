package xmltree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// sizedDoc builds a random document of exactly n nodes, elements and
// text, with attributes on some elements and never two adjacent text
// siblings, so that it serializes and re-parses to the same nodes.
func sizedDoc(r *rand.Rand, n int) *Document {
	tags := []string{"a", "b", "c", "d", "e"}
	b := NewBuilder()
	b.Start("root")
	count, depth, lastWasText := 1, 1, false
	for count < n {
		switch x := r.Intn(10); {
		case x < 3 && depth > 1:
			b.End()
			depth, lastWasText = depth-1, false
		case x < 5 && !lastWasText:
			b.Text(fmt.Sprintf("t%d", count))
			count, lastWasText = count+1, true
		case depth < 40:
			var attrs []Attr
			if x == 9 {
				attrs = []Attr{{Name: "id", Value: fmt.Sprint(count)}}
			}
			b.StartAttrs(tags[r.Intn(len(tags))], attrs)
			count, depth, lastWasText = count+1, depth+1, false
		}
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	return b.MustDone()
}

// checkTree walks a document in preorder and reports the first node
// whose labels or links disagree with the tree: Start must be the
// preorder rank, End the greatest Start in the subtree (one more for the
// document node), Level the depth, and every child, sibling and parent
// link must be the inverse of its partner.
func checkTree(doc *Document) error {
	rank := -1 // the document node's Start
	var walk func(n *Node, level int) error
	walk = func(n *Node, level int) error {
		if n.Start != rank {
			return fmt.Errorf("%v: Start %d, preorder rank %d", n, n.Start, rank)
		}
		if n.Level != level {
			return fmt.Errorf("%v: Level %d, depth %d", n, n.Level, level)
		}
		rank++
		if f := n.FirstChild; f != nil && (f.Parent != n || f.PrevSibling != nil) {
			return fmt.Errorf("%v: first child %v has parent %v, previous sibling %v", n, f, f.Parent, f.PrevSibling)
		}
		var last *Node
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Parent != n {
				return fmt.Errorf("%v: child %v has parent %v", n, c, c.Parent)
			}
			if s := c.NextSibling; s != nil && s.PrevSibling != c {
				return fmt.Errorf("%v: next sibling %v links back to %v", c, s, s.PrevSibling)
			}
			if err := walk(c, level+1); err != nil {
				return err
			}
			last = c
		}
		if n.LastChild != last || last != nil && last.NextSibling != nil {
			return fmt.Errorf("%v: LastChild %v, last child reached %v", n, n.LastChild, last)
		}
		end := rank - 1
		if n.Kind == DocumentNode {
			end = rank
		}
		if n.End != end {
			return fmt.Errorf("%v: End %d, greatest Start in its subtree %d", n, n.End, end)
		}
		return nil
	}
	if err := walk(doc.Root, 0); err != nil {
		return err
	}
	if doc.NodeCount() != rank {
		return fmt.Errorf("NodeCount %d, %d nodes reached", doc.NodeCount(), rank)
	}
	return nil
}

// TestBuilderBlockLayout builds documents around every block boundary —
// the last single node, the first block node, a full block, one node
// past it — and checks each one's labels and links, as built and after a
// serialize/parse round trip.
func TestBuilderBlockLayout(t *testing.T) {
	for _, n := range []int{1, 1023, 1024, 1025, 1279, 1280, 1281, 1536, 100000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			doc := sizedDoc(rand.New(rand.NewSource(int64(n))), n)
			if err := checkTree(doc); err != nil {
				t.Fatalf("built: %v", err)
			}
			if doc.NodeCount() != n {
				t.Fatalf("built %d nodes, want %d", doc.NodeCount(), n)
			}
			out := Serialize(doc.Root, WriteOptions{})
			parsed, err := ParseString(out)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			if err := checkTree(parsed); err != nil {
				t.Fatalf("parsed: %v", err)
			}
			if parsed.NodeCount() != n {
				t.Fatalf("parsed %d nodes, want %d", parsed.NodeCount(), n)
			}
			if again := Serialize(parsed.Root, WriteOptions{}); again != out {
				t.Fatalf("serialization does not round-trip")
			}
		})
	}
}

// TestBuilderInternsTags checks that past the single nodes every parsed
// element of a tag shares one string, where the parser hands the Builder
// a fresh copy each time.
func TestBuilderInternsTags(t *testing.T) {
	doc, err := ParseString("<r>" + strings.Repeat("<item>x</item>", 2000) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	strs := map[*byte]int{}
	Elements(doc.Root, func(n *Node) {
		if n.Start >= singleNodes {
			strs[unsafe.StringData(n.Tag)]++
		}
	})
	if len(strs) != 1 {
		t.Errorf("the block elements' tags are %d strings, want 1", len(strs))
	}
}

// TestBuilderAllocatesBlocks bounds the allocations of building a large
// document: one per single node, one per block, one for the trimmed
// tail and a few for the builder itself, not one per node.
func TestBuilderAllocatesBlocks(t *testing.T) {
	const n = 100000
	build := func() {
		b := NewBuilder()
		b.Start("root")
		for i := 1; i+2 <= n; i += 2 {
			b.Elem("item", "text")
		}
		b.Elem("last", "")
		b.End()
		if b.MustDone().NodeCount() != n {
			t.Fatalf("built %d nodes, want %d", b.doc.NodeCount(), n)
		}
	}
	blocks := (n - singleNodes + blockNodes - 1) / blockNodes
	bound := float64(singleNodes + blocks + 1 + 16)
	if got := testing.AllocsPerRun(3, build); got > bound {
		t.Errorf("building %d nodes made %.0f allocations, want at most %.0f", n, got, bound)
	}
}

// TestBuilderSmallDocumentsAllocatePerNode: a document of at most
// singleNodes nodes is built as it was before blocks, one allocation per
// node plus five for the builder, its document, the document node, its
// stack and the stack's one growth.
func TestBuilderSmallDocumentsAllocatePerNode(t *testing.T) {
	for _, n := range []int{324, singleNodes} {
		got := testing.AllocsPerRun(5, func() {
			b := NewBuilder()
			b.Start("root")
			for i := 1; i < n; i++ {
				b.Elem("item", "")
			}
			b.End()
			b.MustDone()
		})
		if want := float64(n + 5); got != want {
			t.Errorf("building %d nodes made %.0f allocations, want %.0f", n, got, want)
		}
	}
}
