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

func slotOf(t *testing.T, rt *core.ReturnTree, dewey string) int {
	t.Helper()
	d, err := core.ParseDewey(dewey)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := rt.ByDewey(d)
	if !ok {
		t.Fatalf("no slot for Dewey %s", dewey)
	}
	return n.Slot
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

	// π(1.1.1) = [b1, b2, b3] in document order (Theorem 1).
	bs, err := l.Project(core.Dewey{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("π(b) = %d nodes", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if !bs[i-1].Before(bs[i]) {
			t.Error("projection not in document order")
		}
	}
	ds, err := l.Project(core.Dewey{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Errorf("π(d) = %d nodes, want 3", len(ds))
	}
	if _, err := l.Project(core.Dewey{9, 9}); err == nil {
		t.Error("projection on unknown Dewey should fail")
	}
	// Projecting the super-root yields nothing (placeholder node).
	if got := l.ProjectSlot(0); len(got) != 0 {
		t.Errorf("π(super-root) = %v", got)
	}
}

func TestSelection(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)

	// σ_position=2(1.1.1) keeps only b2 (the paper's σposition(1.1)=2
	// example, shifted by the super-root level).
	out, ok, err := l.Select(core.Dewey{1, 1, 1}, func(n *xmltree.Node, pos int) bool { return pos == 2 })
	if err != nil || !ok {
		t.Fatalf("Select: %v %v", ok, err)
	}
	bs, _ := out.Project(core.Dewey{1, 1, 1})
	if len(bs) != 1 {
		t.Fatalf("after σ, π(b) = %d", len(bs))
	}
	ds, _ := out.Project(core.Dewey{1, 1, 1, 1})
	if len(ds) != 2 {
		t.Errorf("after σ, π(d) = %d, want 2 (b2's children)", len(ds))
	}
	// The original instance is untouched.
	if got, _ := l.Project(core.Dewey{1, 1, 1}); len(got) != 3 {
		t.Error("Select mutated its input")
	}

	// Removing every b invalidates the instance (mandatory edge).
	_, ok, err = l.Select(core.Dewey{1, 1, 1}, func(*xmltree.Node, int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("emptying a mandatory slot must invalidate the instance")
	}

	// Removing every d is fine (optional edge).
	out, ok, err = l.Select(core.Dewey{1, 1, 1, 1}, func(*xmltree.Node, int) bool { return false })
	if err != nil || !ok {
		t.Fatalf("optional removal: %v %v", ok, err)
	}
	if ds, _ := out.Project(core.Dewey{1, 1, 1, 1}); len(ds) != 0 {
		t.Errorf("d not removed: %v", ds)
	}

	if _, _, err := l.Select(core.Dewey{7}, nil); err == nil {
		t.Error("Select on unknown Dewey should fail")
	}
}

func TestSelectByValue(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)
	// Keep only b's that have a d child — b1 drops, instance stays valid.
	out, ok, err := l.Select(core.Dewey{1, 1, 1}, func(n *xmltree.Node, pos int) bool {
		return len(xmltree.Children(n, "d")) > 0
	})
	if err != nil || !ok {
		t.Fatalf("Select: %v %v", ok, err)
	}
	if bs, _ := out.Project(core.Dewey{1, 1, 1}); len(bs) != 2 {
		t.Errorf("π(b) = %d, want 2", len(bs))
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
	aSlot := slotOf(t, q.Return, "1.1")
	bSlot := slotOf(t, q.Return, "1.1.1")
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
	items := m.Items(aSlot)
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
	bSlot := slotOf(t, rt, "1.1.1")

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
		cs, _ := p.Project(core.Dewey{1, 1, 2})
		if len(cs) != 2 {
			t.Errorf("instance %d: π(c) = %d, want 2", i, len(cs))
		}
	}
	// d counts follow their b: 0, 2, 1.
	wantD := []int{0, 2, 1}
	for i, p := range parts {
		ds, _ := p.Project(core.Dewey{1, 1, 1, 1})
		if len(ds) != wantD[i] {
			t.Errorf("instance %d: π(d) = %d, want %d", i, len(ds), wantD[i])
		}
	}
	// Original untouched.
	if bs, _ := l.Project(core.Dewey{1, 1, 1}); len(bs) != 3 {
		t.Error("Unnest mutated input")
	}

	// Unnesting the a slot (single item) yields one instance.
	aSlot := slotOf(t, rt, "1.1")
	if parts := Unnest(l, aSlot); len(parts) != 1 {
		t.Errorf("Unnest(a) = %d", len(parts))
	}
}

func TestProjectAll(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)
	bSlot := slotOf(t, rt, "1.1.1")
	parts := Unnest(l, bSlot)
	all := ProjectAll(parts, bSlot)
	if len(all) != 3 {
		t.Fatalf("ProjectAll = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if !all[i-1].Before(all[i]) {
			t.Error("ProjectAll order broken")
		}
	}
}
