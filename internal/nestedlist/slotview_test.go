package nestedlist

import (
	"testing"

	"blossomtree/internal/core"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// chainFixture is //s//m//l over one s holding three m's, each holding
// l's: the outer instance a grouping join of s and m produces, and one
// inner instance per l as the l NoK's scan produces them (a placeholder
// spine down to the m slot, the l below it).
type chainFixture struct {
	q          *core.Query
	mSlot      int
	lSlot      int
	outer      *List
	ms         []*xmltree.Node
	inners     [][]*List // per m
	mVertex    *core.Vertex
	outerPrint string
}

func newChainFixture(t *testing.T) *chainFixture {
	t.Helper()
	q, err := core.FromPath(xpath.MustParse("//s//m//l"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<r><s><m><l/><l/></m><m/><m><x><l/></x></m></s></r>`)
	if err != nil {
		t.Fatal(err)
	}
	f := &chainFixture{q: q, mSlot: slotOf(t, q.Return, "m"), lSlot: slotOf(t, q.Return, "l")}
	f.mVertex = q.Return.Nodes[f.mSlot].Vertex
	s := xmltree.Descendants(doc.DocumentElement(), "s")[0]
	f.ms = xmltree.Descendants(s, "m")

	f.outer = NewInstance(q.Return)
	sItem := NewItem(s, 1)
	for _, m := range f.ms {
		sItem.Groups[0] = append(sItem.Groups[0], NewItem(m, 1))
	}
	f.outer.Root.Groups[0] = []*Item{sItem}
	f.outer.SetFilled(slotOf(t, q.Return, "s"))
	f.outer.SetFilled(f.mSlot)
	f.outerPrint = f.outer.String()

	for _, m := range f.ms {
		var ls []*List
		for _, l := range xmltree.Descendants(m, "l") {
			in := NewInstance(q.Return)
			phS, phM := NewItem(nil, 1), NewItem(nil, 1)
			phM.Groups[0] = []*Item{NewItem(l, 0)}
			phS.Groups[0] = []*Item{phM}
			in.Root.Groups[0] = []*Item{phS}
			in.SetFilled(f.lSlot)
			ls = append(ls, in)
		}
		f.inners = append(f.inners, ls)
	}
	return f
}

func TestVisitSlotAndFirstNodeAgreeWithProjectSlot(t *testing.T) {
	_, rt := fig3Shape(t)
	l, _ := fig3Instance(t, rt)
	for slot := 0; slot < len(rt.Nodes); slot++ {
		want := l.ProjectSlot(slot)
		var first *xmltree.Node
		if len(want) > 0 {
			first = want[0]
		}
		if got := l.FirstNode(slot); got != first {
			t.Errorf("slot %d: FirstNode = %v, want %v", slot, got, first)
		}
		seen := 0
		if l.VisitSlot(slot, func(*xmltree.Node) bool { seen++; return seen < 2 }) != (len(want) < 2) {
			t.Errorf("slot %d: VisitSlot misreported whether it ran to the end", slot)
		}
		if len(want) >= 2 && seen != 2 {
			t.Errorf("slot %d: VisitSlot visited %d nodes after being stopped at 2", slot, seen)
		}
	}
}

// TestSlotViewGraft: a graft equals the general Merge on the slots
// anything reads, shares the viewed instance untouched, and keeps only
// the chain item of an implicit vertex's group — or the whole group
// once the vertex is one a clause consumes.
func TestSlotViewGraft(t *testing.T) {
	f := newChainFixture(t)
	if !f.mVertex.Implicit {
		t.Fatal("m of //s//m//l should be an implicit join endpoint")
	}
	in := f.inners[2][0]
	merged, err := Merge(f.outer, in)
	if err != nil {
		t.Fatal(err)
	}

	var v SlotView
	v.Reset(f.outer, f.mSlot)
	if v.Len() != 3 || v.Node(2) != f.ms[2] || v.Hi() != f.ms[2].End {
		t.Fatalf("view: len %d, node(2) %v, hi %d", v.Len(), v.Node(2), v.Hi())
	}
	narrow, err := v.Graft(2, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := narrow.ProjectSlot(f.mSlot); len(got) != 1 || got[0] != f.ms[2] {
		t.Errorf("narrowed m group = %v, want only the containing m", got)
	}
	if got, want := narrow.ProjectSlot(f.lSlot), merged.ProjectSlot(f.lSlot); len(got) != 1 || got[0] != want[0] {
		t.Errorf("grafted l = %v, want %v", got, want)
	}
	if !narrow.IsFilled(f.lSlot) || !narrow.IsFilled(f.mSlot) {
		t.Error("graft lost filled slots")
	}

	f.mVertex.Implicit = false
	defer func() { f.mVertex.Implicit = true }()
	var whole SlotView
	whole.Reset(f.outer, f.mSlot)
	kept, err := whole.Graft(2, in)
	if err != nil {
		t.Fatal(err)
	}
	if kept.String() != merged.String() {
		t.Errorf("graft = %s, want Merge's %s", kept, merged)
	}
	if f.outer.String() != f.outerPrint {
		t.Errorf("graft modified the viewed instance: %s", f.outer)
	}
}

// TestSlotViewAbsorbEqualsMergeAndSelect: accumulating inners through
// the view and pruning by marks gives what the general path gives —
// merging them in one by one, then selecting the m's that contain one.
func TestSlotViewAbsorbEqualsMergeAndSelect(t *testing.T) {
	f := newChainFixture(t)
	want := f.outer
	var anchors []*xmltree.Node
	var v SlotView
	v.Reset(f.outer, f.mSlot)
	for i, ls := range f.inners {
		for _, in := range ls {
			var err error
			if want, err = Merge(want, in); err != nil {
				t.Fatal(err)
			}
			anchors = append(anchors, in.FirstNode(f.lSlot))
			if err := v.Absorb(i, in); err != nil {
				t.Fatal(err)
			}
			v.Mark(i)
		}
	}
	if got, ok := v.Result(false); !ok || got.String() != want.String() {
		t.Errorf("absorbed = %s, want %s", got, want)
	}
	want, _ = want.SelectSlot(f.mSlot, func(n *xmltree.Node, _ int) bool {
		for _, a := range anchors {
			if n.IsAncestorOf(a) {
				return true
			}
		}
		return false
	})
	got, ok := v.Result(true)
	if !ok || got.String() != want.String() {
		t.Errorf("pruned = %s, want %s", got, want)
	}
	if len(got.ProjectSlot(f.mSlot)) != 2 || len(got.ProjectSlot(f.lSlot)) != 3 {
		t.Errorf("pruned instance keeps %d m's and %d l's, want 2 and 3",
			len(got.ProjectSlot(f.mSlot)), len(got.ProjectSlot(f.lSlot)))
	}
	if f.outer.String() != f.outerPrint {
		t.Errorf("absorb modified the viewed instance: %s", f.outer)
	}

	v.Reset(f.outer, f.mSlot)
	if got, _ := v.Result(false); got != f.outer {
		t.Error("a view nothing was absorbed into should return the viewed instance itself")
	}
}

// TestSlotViewAbsorbDoesNotWriteIntoSharedGroups: two instances sharing
// one item whose group has spare capacity (as per-pair grafts of one
// outer do) must not see each other's absorbed matches.
func TestSlotViewAbsorbDoesNotWriteIntoSharedGroups(t *testing.T) {
	f := newChainFixture(t)
	first, second, third := f.inners[0][0], f.inners[0][1], f.inners[2][0]
	l0 := first.Root.Groups[0][0].Groups[0][0].Groups[0][0]
	shared := f.outer.Root.Groups[0][0].Groups[0][0] // the first m's item
	shared.Groups[0] = append(make([]*Item, 0, 4), l0)

	a := &List{Shape: f.outer.Shape, Root: f.outer.Root}
	b := &List{Shape: f.outer.Shape, Root: f.outer.Root}
	var va, vb SlotView
	va.Reset(a, f.mSlot)
	vb.Reset(b, f.mSlot)
	if err := va.Absorb(0, second); err != nil {
		t.Fatal(err)
	}
	if err := vb.Absorb(0, third); err != nil { // wrong m on purpose: only the aliasing matters
		t.Fatal(err)
	}
	ra, _ := va.Result(false)
	rb, _ := vb.Result(false)
	la, lb := ra.ProjectSlot(f.lSlot), rb.ProjectSlot(f.lSlot)
	if len(la) != 2 || la[1] != second.FirstNode(f.lSlot) {
		t.Errorf("first accumulation sees %v, want its own second l", la)
	}
	if len(lb) != 2 || lb[1] != third.FirstNode(f.lSlot) {
		t.Errorf("second accumulation sees %v, want its own l", lb)
	}
	if len(shared.Groups[0]) != 1 {
		t.Error("the shared item's group grew")
	}
}

func TestSlotViewRefusesNonSpineInner(t *testing.T) {
	f := newChainFixture(t)
	var v SlotView
	v.Reset(f.outer, f.mSlot)
	if _, err := v.Graft(0, f.outer); err == nil {
		t.Error("grafting an instance with real items on the spine should fail")
	}
	if err := v.Absorb(0, NewInstance(f.q.Return)); err == nil {
		t.Error("absorbing an instance without a spine should fail")
	}
}
