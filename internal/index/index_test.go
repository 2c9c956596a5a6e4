package index

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

func buildDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(`<a><b/><c><b/><d>t</d></c><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBuildAndLookup(t *testing.T) {
	ix := Build(buildDoc(t))
	if got := ix.Count("b"); got != 3 {
		t.Errorf("Count(b) = %d, want 3", got)
	}
	if got := ix.Count("a"); got != 1 {
		t.Errorf("Count(a) = %d, want 1", got)
	}
	if got := ix.Count("zzz"); got != 0 {
		t.Errorf("Count(zzz) = %d, want 0", got)
	}
	if got := ix.TotalElements(); got != 6 {
		t.Errorf("TotalElements = %d, want 6", got)
	}
	if got := len(ix.Nodes("*")); got != 6 {
		t.Errorf("Nodes(*) = %d, want 6", got)
	}
	bs := ix.Nodes("b")
	for i := 1; i < len(bs); i++ {
		if !bs[i-1].Before(bs[i]) {
			t.Error("inverted list not in document order")
		}
	}
	tags := ix.Tags()
	want := []string{"a", "b", "c", "d"}
	if len(tags) != len(want) {
		t.Fatalf("Tags = %v", tags)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Errorf("Tags[%d] = %q, want %q", i, tags[i], want[i])
		}
	}
	if ix.Document() == nil {
		t.Error("Document() is nil")
	}
}

func TestStream(t *testing.T) {
	ix := Build(buildDoc(t))
	s := ix.Stream("b")
	if s.Len() != 3 || s.EOF() {
		t.Fatalf("fresh stream: Len=%d EOF=%v", s.Len(), s.EOF())
	}
	first := s.Head()
	if first == nil || first.Tag != "b" {
		t.Fatalf("Head = %v", first)
	}
	if got := s.Next(); got != first {
		t.Error("Next did not return head")
	}
	s.Advance()
	s.Advance()
	if !s.EOF() || s.Head() != nil || s.Next() != nil {
		t.Error("stream should be exhausted")
	}
	s.Advance() // no-op past EOF
	if s.Len() != 0 {
		t.Errorf("Len past EOF = %d", s.Len())
	}
}

func TestStreamSkipTo(t *testing.T) {
	ix := Build(buildDoc(t))
	s := ix.Stream("b")
	b3 := ix.Nodes("b")[2]
	s.SkipTo(b3.Start)
	if s.Head() != b3 {
		t.Errorf("SkipTo landed on %v, want %v", s.Head(), b3)
	}
	// SkipTo never moves backwards.
	s.SkipTo(0)
	if s.Head() != b3 {
		t.Error("SkipTo moved backwards")
	}
	s.SkipTo(b3.Start + 1000)
	if !s.EOF() {
		t.Error("SkipTo past end should exhaust stream")
	}
	s.SkipTo(0) // no-op at EOF
	if !s.EOF() {
		t.Error("SkipTo at EOF should stay EOF")
	}
}

// TestStreamSkipToGallops: wherever the galloping search lands, it lands
// where a linear walk would, and it charges exactly the positions it
// passed — to the stats and to the governor alike — without allocating.
func TestStreamSkipToGallops(t *testing.T) {
	doc, err := xmltree.ParseString("<a>" + strings.Repeat("<b/>", 40) + "</a>")
	if err != nil {
		t.Fatal(err)
	}
	bs := Build(doc).Nodes("b")
	cases := []struct {
		name     string
		from     int // cursor position before the skip
		target   int // SkipTo argument
		wantPos  int
		wantSkip int64
	}{
		{"zero: head already there", 5, bs[5].Start, 5, 0},
		{"zero: backwards target", 20, bs[3].Start, 20, 0},
		{"one", 5, bs[6].Start, 6, 1},
		{"one, between nodes", 5, bs[5].Start + 1, 6, 1},
		{"two", 5, bs[7].Start, 7, 2},
		{"many", 2, bs[37].Start, 37, 35},
		{"to the last node", 0, bs[39].Start, 39, 39},
		{"to EOF", 10, bs[39].Start + 1, 40, 30},
		{"past EOF", 0, 1 << 30, 40, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream(bs)
			s.pos = tc.from
			s.Stats = obs.NewOpStats("stream", "")
			s.Gov = gov.New(nil, gov.Budget{MaxNodes: 1 << 20}, nil)
			s.SkipTo(tc.target)
			if s.pos != tc.wantPos {
				t.Errorf("landed at %d, want %d", s.pos, tc.wantPos)
			}
			if got := s.Stats.Scanned(); got != tc.wantSkip {
				t.Errorf("stats charged %d, want %d", got, tc.wantSkip)
			}
			if got := s.Gov.NodesScanned(); got != tc.wantSkip {
				t.Errorf("governor charged %d, want %d", got, tc.wantSkip)
			}
		})
	}
	s := NewStream(bs)
	if allocs := testing.AllocsPerRun(100, func() {
		s.pos = 0
		s.SkipTo(bs[1].Start)
		s.SkipTo(bs[30].Start)
		s.SkipTo(1 << 30)
	}); allocs != 0 {
		t.Errorf("SkipTo allocates %.0f objects per run, want 0", allocs)
	}
}

// randomDocs returns recursive random documents over a small alphabet,
// text included, so tag runs interleave in document order.
func randomDocs(t *testing.T, n int) []*xmltree.Document {
	t.Helper()
	var docs []*xmltree.Document
	for seed := int64(1); seed <= int64(n); seed++ {
		r := rand.New(rand.NewSource(seed))
		docs = append(docs, xmlgen.MustRandom(r, xmlgen.RandomSpec{Tags: []string{"a", "b", "c", "d"}, MaxNodes: 120, MaxDepth: 9}))
	}
	return docs
}

// TestPostingsAreTheTagsElements: each tag's run holds exactly the
// document's elements with that tag, in document order, and the runs
// together cover every element once.
func TestPostingsAreTheTagsElements(t *testing.T) {
	for _, doc := range randomDocs(t, 20) {
		ix := Build(doc)
		total := 0
		for _, tag := range ix.Tags() {
			var want []*xmltree.Node
			xmltree.Elements(doc.Root, func(n *xmltree.Node) {
				if n.Tag == tag {
					want = append(want, n)
				}
			})
			if got := ix.Nodes(tag); !slices.Equal(got, want) {
				t.Fatalf("Nodes(%s): %d postings, want the %d elements in document order", tag, len(got), len(want))
			}
			total += ix.Count(tag)
		}
		if total != ix.TotalElements() || len(ix.cols.nodes) != total {
			t.Errorf("runs hold %d postings in %d-long columns, want %d", total, len(ix.cols.nodes), ix.TotalElements())
		}
	}
}

// TestStreamColumnsMatchHead: for every tag, the wildcard and a list
// stream, the head accessors read the head node's labels at every
// position, and HeadStart reads math.MaxInt at EOF.
func TestStreamColumnsMatchHead(t *testing.T) {
	for _, doc := range randomDocs(t, 20) {
		ix := Build(doc)
		type stream struct {
			name  string
			s     Stream
			nodes []*xmltree.Node
		}
		streams := []stream{{"*", ix.Stream("*"), ix.Nodes("*")}, {"list(b)", NewStream(ix.Nodes("b")), ix.Nodes("b")}}
		for _, tag := range ix.Tags() {
			streams = append(streams, stream{tag, ix.Stream(tag), ix.Nodes(tag)})
		}
		for _, st := range streams {
			name, s := st.name, st.s
			for ; !s.EOF(); s.Advance() {
				h := s.Head()
				if h != st.nodes[s.pos] {
					t.Fatalf("stream %s at %d: head is not the posting", name, s.pos)
				}
				if s.HeadStart() != h.Start || s.HeadEnd() != h.End || s.HeadLevel() != h.Level {
					t.Fatalf("stream %s at %d: columns (%d,%d,%d), head (%d,%d,%d)",
						name, s.pos, s.HeadStart(), s.HeadEnd(), s.HeadLevel(), h.Start, h.End, h.Level)
				}
			}
			if s.pos != len(st.nodes) {
				t.Errorf("stream %s ended after %d of %d postings", name, s.pos, len(st.nodes))
			}
			if s.HeadStart() != math.MaxInt {
				t.Errorf("stream %s: HeadStart at EOF = %d", name, s.HeadStart())
			}
		}
	}
}

// TestStreamSkipToMatchesLinearScan: from random positions to random
// targets, SkipTo lands where advancing while the head starts before the
// target lands, and charges the stats and the governor what that walk
// charges.
func TestStreamSkipToMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	stream := func(ix *TagIndex, tag string, from int) Stream {
		s := ix.Stream(tag)
		s.pos = from
		s.Stats = obs.NewOpStats("stream", "")
		s.Gov = gov.New(nil, gov.Budget{MaxNodes: 1 << 20}, nil)
		return s
	}
	for _, doc := range randomDocs(t, 20) {
		ix := Build(doc)
		last := doc.Root.End + 2
		for _, tag := range append(ix.Tags(), "*") {
			for range 20 {
				from, target := r.Intn(ix.Count(tag)+1), r.Intn(last)
				skip, walk := stream(ix, tag, from), stream(ix, tag, from)
				skip.SkipTo(target)
				for walk.HeadStart() < target {
					walk.Advance()
				}
				if skip.pos != walk.pos || skip.Head() != walk.Head() {
					t.Fatalf("%s from %d to %d: SkipTo landed at %d, the walk at %d", tag, from, target, skip.pos, walk.pos)
				}
				if skip.Stats.Scanned() != walk.Stats.Scanned() || skip.Gov.NodesScanned() != walk.Gov.NodesScanned() {
					t.Fatalf("%s from %d to %d: SkipTo charged %d/%d, the walk %d/%d", tag, from, target,
						skip.Stats.Scanned(), skip.Gov.NodesScanned(), walk.Stats.Scanned(), walk.Gov.NodesScanned())
				}
			}
		}
	}
}

// TestStreamReadsDoNotAllocate: skips and head reads cost no allocation.
func TestStreamReadsDoNotAllocate(t *testing.T) {
	ix := Build(randomDocs(t, 1)[0])
	s := ix.Stream("a")
	sum := 0
	if allocs := testing.AllocsPerRun(100, func() {
		s.pos = 0
		for !s.EOF() {
			sum += s.HeadStart() + s.HeadEnd() + s.HeadLevel()
			s.SkipTo(s.HeadStart() + 2)
		}
	}); allocs != 0 {
		t.Errorf("SkipTo and the head accessors allocate %.0f objects per run, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("stream a is empty")
	}
}

// TestNodesAppendCopies: a Nodes result ends at its run's end, so an
// append to it copies instead of overwriting the next tag's run.
func TestNodesAppendCopies(t *testing.T) {
	ix := Build(buildDoc(t))
	for _, tag := range append(ix.Tags(), "*") {
		before := map[string][]*xmltree.Node{}
		for _, u := range ix.Tags() {
			before[u] = slices.Clone(ix.Nodes(u))
		}
		_ = append(ix.Nodes(tag), nil)
		for _, u := range ix.Tags() {
			if !slices.Equal(ix.Nodes(u), before[u]) {
				t.Errorf("appending to Nodes(%s) changed the run of %s", tag, u)
			}
		}
	}
}
