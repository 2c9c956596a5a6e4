package nestedlist

import (
	"testing"

	"blossomtree/internal/core"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// fig3Shape builds the NoK pattern tree of Figure 3(a): a with children
// b and c, b with child d; all returning. The b and c edges are
// mandatory, d's edge is optional (matching Example 3, where b1 has no d
// but stays in the result).
func fig3Shape(t *testing.T) (*core.BlossomTree, *core.ReturnTree) {
	t.Helper()
	bt := core.NewBlossomTree()
	root := bt.AddRoot("t.xml")
	a := bt.NewVertex("a")
	bt.AddChild(root, a, core.RelDescendant, core.Mandatory)
	b := bt.NewVertex("b")
	bt.AddChild(a, b, core.RelChild, core.Mandatory)
	d := bt.NewVertex("d")
	bt.AddChild(b, d, core.RelChild, core.Optional)
	c := bt.NewVertex("c")
	bt.AddChild(a, c, core.RelChild, core.Mandatory)
	for _, v := range []*core.Vertex{a, b, c, d} {
		v.Returning = true
	}
	rt := bt.Finalize()
	return bt, rt
}

// fig3XML is the XML tree of Figure 3(b).
const fig3XML = `<t><a><b/><b><d/><d/></b><b><d/></b><c/><c/></a></t>`

// fig3Instance constructs the resulting NestedList of Figure 3(c)/4 by
// hand, as the matcher would.
func fig3Instance(t *testing.T, rt *core.ReturnTree) (*List, *xmltree.Document) {
	t.Helper()
	doc, err := xmltree.ParseString(fig3XML)
	if err != nil {
		t.Fatal(err)
	}
	top := doc.DocumentElement()
	a1 := xmltree.Children(top, "a")[0]
	bs := xmltree.Children(a1, "b")
	cs := xmltree.Children(a1, "c")

	l := NewInstance(rt)
	aItem := NewItem(a1, 2) // children: b group, c group
	bItems := make([]*Item, len(bs))
	for i, b := range bs {
		bItems[i] = NewItem(b, 1)
		for _, d := range xmltree.Children(b, "d") {
			bItems[i].Groups[0] = append(bItems[i].Groups[0], NewItem(d, 0))
		}
	}
	aItem.Groups[0] = bItems
	for _, c := range cs {
		aItem.Groups[1] = append(aItem.Groups[1], NewItem(c, 0))
	}
	l.Root.Groups[0] = []*Item{aItem}
	for slot := 1; slot < len(rt.Nodes); slot++ {
		l.SetFilled(slot)
	}
	return l, doc
}

// slotOf returns the slot of the returning vertex with the given tag.
func slotOf(t *testing.T, rt *core.ReturnTree, tag string) int {
	t.Helper()
	for _, n := range rt.Nodes {
		if n.Vertex != nil && n.Vertex.Test == tag {
			return n.Slot
		}
	}
	t.Fatalf("no returning vertex %q", tag)
	return 0
}

func TestFigure4Notation(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)
	want := "((a,[(b,()),(b,[(d),(d)]),(b,(d))],[(c),(c)]))"
	if got := l.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

func TestProjection(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)

	// π(b) = [b1, b2, b3] in document order (Theorem 1).
	bs := l.ProjectSlot(slotOf(t, rt, "b"))
	if len(bs) != 3 {
		t.Fatalf("π(b) = %d nodes", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if !bs[i-1].Before(bs[i]) {
			t.Error("projection not in document order")
		}
	}
	if ds := l.ProjectSlot(slotOf(t, rt, "d")); len(ds) != 3 {
		t.Errorf("π(d) = %d nodes, want 3", len(ds))
	}
	// Projecting the super-root yields nothing (placeholder node).
	if got := l.ProjectSlot(0); len(got) != 0 {
		t.Errorf("π(super-root) = %v", got)
	}
}

func TestSelection(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)
	bSlot, dSlot := slotOf(t, rt, "b"), slotOf(t, rt, "d")

	// σ_position=2(b) keeps only b2 (the paper's σposition(1.1)=2
	// example).
	out, ok := l.SelectSlot(bSlot, func(n *xmltree.Node, pos int) bool { return pos == 2 })
	if !ok {
		t.Fatal("SelectSlot invalidated the instance")
	}
	if bs := out.ProjectSlot(bSlot); len(bs) != 1 {
		t.Fatalf("after σ, π(b) = %d", len(bs))
	}
	if ds := out.ProjectSlot(dSlot); len(ds) != 2 {
		t.Errorf("after σ, π(d) = %d, want 2 (b2's children)", len(ds))
	}
	// The original instance is untouched.
	if got := l.ProjectSlot(bSlot); len(got) != 3 {
		t.Error("SelectSlot mutated its input")
	}

	// Removing every b invalidates the instance (mandatory edge).
	if _, ok := l.SelectSlot(bSlot, func(*xmltree.Node, int) bool { return false }); ok {
		t.Error("emptying a mandatory slot must invalidate the instance")
	}

	// Removing every d is fine (optional edge).
	out, ok = l.SelectSlot(dSlot, func(*xmltree.Node, int) bool { return false })
	if !ok {
		t.Fatal("optional removal invalidated the instance")
	}
	if ds := out.ProjectSlot(dSlot); len(ds) != 0 {
		t.Errorf("d not removed: %v", ds)
	}
}

func TestSelectByValue(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)
	bSlot := slotOf(t, rt, "b")
	// Keep only b's that have a d child — b1 drops, instance stays valid.
	out, ok := l.SelectSlot(bSlot, func(n *xmltree.Node, pos int) bool {
		return len(xmltree.Children(n, "d")) > 0
	})
	if !ok {
		t.Fatal("SelectSlot invalidated the instance")
	}
	if bs := out.ProjectSlot(bSlot); len(bs) != 2 {
		t.Errorf("π(b) = %d, want 2", len(bs))
	}
}

func TestSelectionCascades(t *testing.T) {
	q, aSlot, bSlot := twoNoKShape(t)
	doc, err := xmltree.ParseString(`<r><a><b/></a><a><b/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	as := xmltree.Descendants(doc.DocumentElement(), "a")
	bs := xmltree.Descendants(doc.DocumentElement(), "b")
	l := NewInstance(q.Return)
	for i, a := range as {
		it := NewItem(a, 1)
		it.Groups[0] = []*Item{NewItem(bs[i], 0)}
		l.Root.Groups[0] = append(l.Root.Groups[0], it)
	}
	l.SetFilled(aSlot)
	l.SetFilled(bSlot)

	// Losing its only b removes the first a; the second keeps the
	// instance valid.
	out, ok := l.SelectSlot(bSlot, func(n *xmltree.Node, _ int) bool { return n == bs[1] })
	if !ok {
		t.Fatal("a surviving a must keep the instance valid")
	}
	if got := out.ProjectSlot(aSlot); len(got) != 1 || got[0] != as[1] {
		t.Errorf("after σ, π(a) = %v, want the second a", got)
	}
	// Losing every b cascades to the top.
	if _, ok := l.SelectSlot(bSlot, func(*xmltree.Node, int) bool { return false }); ok {
		t.Error("removing every b must invalidate the instance")
	}
}

// twoNoKShape compiles //a//b so that a and b land in different NoKs and
// instances fill disjoint slots.
func twoNoKShape(t *testing.T) (*core.Query, int, int) {
	t.Helper()
	q, err := core.FromPath(xpath.MustParse("//a//b"))
	if err != nil {
		t.Fatal(err)
	}
	aSlot := slotOf(t, q.Return, "a")
	bSlot := slotOf(t, q.Return, "b")
	return q, aSlot, bSlot
}

func TestMergeFillsPlaceholders(t *testing.T) {
	q, aSlot, bSlot := twoNoKShape(t)
	doc, err := xmltree.ParseString(`<r><a><x><b/></x></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	a := xmltree.Descendants(doc.DocumentElement(), "a")[0]
	b := xmltree.Descendants(doc.DocumentElement(), "b")[0]

	// Instance A: fills the a slot, b group empty (placeholder).
	la := NewInstance(q.Return)
	aItem := NewItem(a, 1)
	la.Root.Groups[0] = []*Item{aItem}
	la.SetFilled(aSlot)

	// Instance B: placeholder spine for a, fills the b slot.
	lb := NewInstance(q.Return)
	spine := NewItem(nil, 1)
	spine.Groups[0] = []*Item{NewItem(b, 0)}
	lb.Root.Groups[0] = []*Item{spine}
	lb.SetFilled(bSlot)

	m, err := Merge(la, lb)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsFilled(aSlot) || !m.IsFilled(bSlot) {
		t.Error("merged instance should fill both slots")
	}
	as := m.ProjectSlot(aSlot)
	bs := m.ProjectSlot(bSlot)
	if len(as) != 1 || as[0] != a || len(bs) != 1 || bs[0] != b {
		t.Errorf("projections = %v, %v", as, bs)
	}
	// Inputs untouched.
	if len(la.ProjectSlot(bSlot)) != 0 {
		t.Error("Merge mutated input")
	}
	// Merge is symmetric.
	m2, err := Merge(lb, la)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.ProjectSlot(bSlot)) != 1 {
		t.Error("reversed merge lost b")
	}
}

func TestMergeDeepestAncestorWins(t *testing.T) {
	// Recursive document: two nested a's; the b spine must attach to the
	// inner (deepest) a.
	q, aSlot, bSlot := twoNoKShape(t)
	doc, err := xmltree.ParseString(`<r><a><a><b/></a></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	as := xmltree.Descendants(doc.DocumentElement(), "a")
	b := xmltree.Descendants(doc.DocumentElement(), "b")[0]

	la := NewInstance(q.Return)
	la.Root.Groups[0] = []*Item{NewItem(as[0], 1), NewItem(as[1], 1)}
	la.SetFilled(aSlot)

	lb := NewInstance(q.Return)
	spine := NewItem(nil, 1)
	spine.Groups[0] = []*Item{NewItem(b, 0)}
	lb.Root.Groups[0] = []*Item{spine}
	lb.SetFilled(bSlot)

	m, err := Merge(la, lb)
	if err != nil {
		t.Fatal(err)
	}
	items := m.Root.Groups[0] // the a group under the super-root
	if len(items) != 2 {
		t.Fatalf("a items = %d", len(items))
	}
	if len(items[0].Groups[0]) != 0 {
		t.Error("outer a should not receive the b spine")
	}
	if len(items[1].Groups[0]) != 1 || items[1].Groups[0][0].Node != b {
		t.Error("inner a should receive the b spine")
	}
}

func TestMergeErrors(t *testing.T) {
	q, aSlot, _ := twoNoKShape(t)
	doc, _ := xmltree.ParseString(`<r><a/><b/></r>`)
	a := xmltree.Descendants(doc.DocumentElement(), "a")[0]
	b := xmltree.Descendants(doc.DocumentElement(), "b")[0]

	la := NewInstance(q.Return)
	la.Root.Groups[0] = []*Item{NewItem(a, 1)}
	la.SetFilled(aSlot)

	// Merging an instance with itself unions the groups item-wise: the
	// shared node merges into one item.
	self, err := Merge(la, la)
	if err != nil {
		t.Fatalf("self merge: %v", err)
	}
	if got := self.ProjectSlot(aSlot); len(got) != 1 || got[0] != a {
		t.Errorf("self merge projection = %v", got)
	}

	// Spine anchored at a node outside every real item.
	q2, _, bSlot := twoNoKShape(t)
	_ = q2
	lb := NewInstance(q.Return)
	spine := NewItem(nil, 1)
	spine.Groups[0] = []*Item{NewItem(b, 0)} // b is not under a
	lb.Root.Groups[0] = []*Item{spine}
	lb.SetFilled(bSlot)
	if _, err := Merge(la, lb); err == nil {
		t.Error("unanchorable spine should fail")
	}

	// Different shapes.
	q3, _, _ := twoNoKShape(t)
	other := NewInstance(q3.Return)
	if _, err := Merge(la, other); err == nil {
		t.Error("different shapes should fail")
	}
}

func TestUnnest(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)
	bSlot, cSlot, dSlot := slotOf(t, rt, "b"), slotOf(t, rt, "c"), slotOf(t, rt, "d")

	parts := Unnest(l, bSlot)
	if len(parts) != 3 {
		t.Fatalf("Unnest(b) = %d instances, want 3", len(parts))
	}
	for i, p := range parts {
		bs := p.ProjectSlot(bSlot)
		if len(bs) != 1 {
			t.Fatalf("instance %d has %d b's", i, len(bs))
		}
		// c group intact in every instance.
		if cs := p.ProjectSlot(cSlot); len(cs) != 2 {
			t.Errorf("instance %d: π(c) = %d, want 2", i, len(cs))
		}
	}
	// d counts follow their b: 0, 2, 1.
	wantD := []int{0, 2, 1}
	for i, p := range parts {
		if ds := p.ProjectSlot(dSlot); len(ds) != wantD[i] {
			t.Errorf("instance %d: π(d) = %d, want %d", i, len(ds), wantD[i])
		}
	}
	// Original untouched.
	if bs := l.ProjectSlot(bSlot); len(bs) != 3 {
		t.Error("Unnest mutated input")
	}

	// Unnesting the a slot (single item) yields one instance.
	aSlot := slotOf(t, rt, "a")
	if parts := Unnest(l, aSlot); len(parts) != 1 {
		t.Errorf("Unnest(a) = %d", len(parts))
	}
}
