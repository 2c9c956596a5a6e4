package join

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/nok"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// crossParts are the two for-clauses of a crossing query over x and y
// elements, ready to join: fresh scans of both, and the query's
// crossings oriented with x as the outer input.
type crossParts struct {
	outer, inner Operator
	spans        []Span
	crossings    []*core.Crossing
	slots        int
}

// buildCrossParts compiles `for $a in //x, $b in //y where cond` and
// scans its two NoKs.
func buildCrossParts(t *testing.T, doc *xmltree.Document, cond string) crossParts {
	t.Helper()
	q, err := core.FromFLWOR(flwor.MustParse(
		`for $a in doc("d")//x, $b in doc("d")//y where ` + cond + ` return <r>{ $a, $b }</r>`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Decompose(q.Tree)
	if err != nil {
		t.Fatal(err)
	}
	p := crossParts{crossings: q.Tree.Crossings, slots: len(q.Return.Nodes)}
	ix := index.Build(doc)
	for _, n := range d.NoKs {
		if n.Root.Test != "x" && n.Root.Test != "y" {
			continue
		}
		m, err := nok.NewMatcher(n, q.Return)
		if err != nil {
			t.Fatal(err)
		}
		if n.Root.Test == "x" {
			p.outer = scanOf(m, ix)
		} else {
			p.inner = scanOf(m, ix)
		}
	}
	slot := func(v *core.Vertex) int {
		rn, ok := q.Return.ByVertex(v)
		if !ok {
			t.Fatalf("crossing endpoint %s has no slot", v.Label())
		}
		return rn.Slot
	}
	for _, c := range q.Tree.Crossings {
		fromNoK, _ := d.NoKOf(c.From)
		p.spans = append(p.spans, Span{Crossing: c, FromSlot: slot(c.From), ToSlot: slot(c.To),
			FromInner: fromNoK.Root.Test == "y"})
	}
	return p
}

// hashJoinOf joins the parts on their first hashable crossing, the
// others residual, as the planner does.
func hashJoinOf(t *testing.T, p crossParts) *HashJoin {
	t.Helper()
	j := &HashJoin{Outer: p.outer, Inner: p.inner}
	var rest []Span
	keyed := false
	for _, s := range p.spans {
		if !keyed && s.Crossing.Hashable() {
			j.Key, keyed = s, true
		} else {
			rest = append(rest, s)
		}
	}
	if !keyed {
		t.Fatal("no hashable crossing")
	}
	if len(rest) > 0 {
		j.Residual = SpansPredicate(rest)
	}
	return j
}

// fingerprint renders joined instances by every slot's node positions,
// in emission order.
func fingerprint(ls []*nestedlist.List, slots int) string {
	var sb strings.Builder
	for _, l := range ls {
		for s := 0; s < slots; s++ {
			for _, n := range l.ProjectSlot(s) {
				fmt.Fprintf(&sb, "%d,", n.Start)
			}
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// hashValues are values whose keys collide or must not: numbers spelled
// several ways, NaN, the infinities and words that start like them.
var hashValues = []string{" 1 ", "1.0", "1", "-0", "0", "NaN", "inf", "Infinity", "india", "", "x"}

// randomCrossDoc interleaves x and y elements carrying 0–3 v children
// and k attributes drawn from hashValues, each attribute present or not.
func randomCrossDoc(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	attr := func() string {
		if r.Intn(3) == 0 {
			return ""
		}
		return fmt.Sprintf(` k="%s"`, hashValues[r.Intn(len(hashValues))])
	}
	for i, n := 0, r.Intn(12); i < n; i++ {
		tag := []string{"x", "y"}[r.Intn(2)]
		fmt.Fprintf(&sb, "<%s%s>", tag, attr())
		for j, m := 0, r.Intn(4); j < m; j++ {
			fmt.Fprintf(&sb, "<v%s>%s</v>", attr(), hashValues[r.Intn(len(hashValues))])
		}
		fmt.Fprintf(&sb, "</%s>", tag)
	}
	sb.WriteString("</r>")
	return sb.String()
}

// hashConds are where-clauses with an = crossing between $a and $b:
// element and attribute values, From in either input, and residual
// crossings of every kind.
var hashConds = []string{
	`$a/v = $b/v`,
	`$a/@k = $b/@k`,
	`$b/v = $a/v`,
	`$a/v = $b/@k`,
	`$b/@k = $a/v and $a << $b`,
	`$a << $b and $a/v = $b/v`,
	`$a/v = $b/v and $a/@k = $b/@k`,
	`$a/v = $b/v and $a/v != $b/v`,
	`$a/@k = $b/v and $b << $a`,
}

// TestQuickHashJoinMatchesNestedLoop: a HashJoin emits exactly the pairs
// of a nested loop followed by one CrossingFilter per crossing, in the
// same order, over multi-valued, empty, attribute-valued and
// numeric-looking endpoints.
func TestQuickHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := parse(t, randomCrossDoc(r))
		for _, cond := range hashConds {
			p := buildCrossParts(t, doc, cond)
			var want Operator = &NestedLoopJoin{Outer: p.outer, Inner: p.inner,
				Pred: func(_, _ *nestedlist.List) (bool, error) { return true, nil }}
			for _, s := range p.spans {
				want = &CrossingFilter{Input: want, Crossing: s.Crossing, FromSlot: s.FromSlot, ToSlot: s.ToSlot}
			}
			wantFP := fingerprint(Drain(want), p.slots)

			j := hashJoinOf(t, buildCrossParts(t, doc, cond))
			got := Drain(j)
			if j.Err != nil {
				t.Logf("seed %d, %s: %v", seed, cond, j.Err)
				return false
			}
			if gotFP := fingerprint(got, p.slots); gotFP != wantFP {
				t.Logf("seed %d, %s:\nhash join\n%s\nnested loop and filters\n%s", seed, cond, gotFP, wantFP)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHashJoinKeyedComparisons: EXPLAIN ANALYZE's cmp counts the
// instances keyed on both sides and the candidate pairs, not every pair.
func TestHashJoinKeyedComparisons(t *testing.T) {
	doc := parse(t, `<r><x><v>1</v></x><x><v>2</v></x><x><v>a</v></x><y><v>1.0</v></y><y><v>b</v></y><y><v>2</v><v> 2 </v></y></r>`)
	j := hashJoinOf(t, buildCrossParts(t, doc, `$a/v = $b/v`))
	j.Stats = obs.NewOpStats("HashJoin", "")
	if got := len(Drain(j)); got != 2 {
		t.Fatalf("joined %d pairs, want 2", got)
	}
	if got := j.Stats.Comparisons(); got != 3+3+2 {
		t.Errorf("cmp = %d, want 8: 6 instances keyed, 2 candidate pairs", got)
	}
}

// crossDoc is large enough that the value join emits many pairs.
func crossDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	return parse(t, "<r>"+strings.Repeat("<x><v>1</v></x><y><v>1</v></y><x><v>2</v></x>", 20)+"</r>")
}

func TestHashJoinCanceled(t *testing.T) {
	j := hashJoinOf(t, buildCrossParts(t, crossDoc(t), `$a/v = $b/v`))
	j.Gov = canceledGov(t)
	if got := Drain(j); len(got) != 0 {
		t.Errorf("canceled hash join produced %d", len(got))
	}
	if !errors.Is(j.Err, gov.ErrCanceled) {
		t.Errorf("canceled hash join Err = %v, want ErrCanceled", j.Err)
	}
}

// TestHashJoinFailAt arms the hash join's fault site at its first,
// middle and last emission: the stream ends there with the injected
// error, having emitted the pairs before it.
func TestHashJoinFailAt(t *testing.T) {
	doc := crossDoc(t)
	total := int64(len(Drain(hashJoinOf(t, buildCrossParts(t, doc, `$a/v = $b/v`)))))
	if total != 20*20 {
		t.Fatalf("clean run emitted %d pairs, want 400", total)
	}
	boom := errors.New("injected hash-join failure")
	for _, k := range []int64{1, total / 2, total} {
		inj := fault.New().FailAt(fault.SiteHashJoin, k, boom)
		j := hashJoinOf(t, buildCrossParts(t, doc, `$a/v = $b/v`))
		j.Gov = gov.New(context.Background(), gov.Budget{}, inj)
		if got := int64(len(Drain(j))); got != k-1 || !errors.Is(j.Err, boom) {
			t.Errorf("fault at emission %d: emitted %d, Err %v; want %d and the injected error", k, got, j.Err, k-1)
		}
	}
}

// TestHashJoinPanicAt: a scripted panic at the hash join's site fires
// inside GetNext, naming the site, for the executor's recovery to catch.
func TestHashJoinPanicAt(t *testing.T) {
	j := hashJoinOf(t, buildCrossParts(t, crossDoc(t), `$a/v = $b/v`))
	j.Gov = gov.New(context.Background(), gov.Budget{}, fault.New().PanicAt(fault.SiteHashJoin, 3))
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), string(fault.SiteHashJoin)) {
			t.Errorf("recovered %v, want the injected panic at %s", r, fault.SiteHashJoin)
		}
	}()
	Drain(j)
	t.Error("hash join drained without the injected panic")
}
