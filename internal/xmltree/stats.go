package xmltree

import "fmt"

// Stats summarizes the document properties the paper's Table 1 reports
// and the plan optimizer consumes: size, node counts, depth distribution,
// tag alphabet, and recursion.
type Stats struct {
	Name     string
	Bytes    int64
	Nodes    int // element + text nodes (the paper's "#nodes")
	Elements int
	Texts    int

	AvgDepth float64 // average element depth (document element = 1)
	MaxDepth int

	Tags      int            // |tags|
	TagCounts map[string]int // occurrences per tag

	// Recursive reports whether any element has a proper ancestor with
	// the same tag. MaxRecursion is the largest same-tag nesting count on
	// any root-to-leaf path (1 = non-recursive).
	Recursive    bool
	MaxRecursion int
}

// ComputeStats walks the document once and derives its statistics.
func ComputeStats(d *Document) Stats {
	s := Stats{
		Name:         d.Name,
		Bytes:        d.Bytes,
		TagCounts:    make(map[string]int),
		MaxRecursion: 1,
	}
	onPath := make(map[string]int)
	var depthSum int64
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.Kind {
		case ElementNode:
			s.Elements++
			s.TagCounts[n.Tag]++
			depthSum += int64(n.Level)
			if n.Level > s.MaxDepth {
				s.MaxDepth = n.Level
			}
			onPath[n.Tag]++
			if onPath[n.Tag] > s.MaxRecursion {
				s.MaxRecursion = onPath[n.Tag]
			}
			for c := n.FirstChild; c != nil; c = c.NextSibling {
				walk(c)
			}
			onPath[n.Tag]--
			return
		case TextNode:
			s.Texts++
		}
	}
	if d.Root != nil {
		for c := d.Root.FirstChild; c != nil; c = c.NextSibling {
			walk(c)
		}
	}
	s.Nodes = s.Elements + s.Texts
	s.Tags = len(s.TagCounts)
	s.Recursive = s.MaxRecursion > 1
	if s.Elements > 0 {
		s.AvgDepth = float64(depthSum) / float64(s.Elements)
	}
	return s
}

// String renders a one-line summary matching Table 1's columns.
func (s Stats) String() string {
	rec := "N"
	if s.Recursive {
		rec = "Y"
	}
	return fmt.Sprintf("%s: %s, %d nodes, avg dep %.1f, max dep %d, |tags| %d, recursive %s",
		s.Name, FormatBytes(s.Bytes), s.Nodes, s.AvgDepth, s.MaxDepth, s.Tags, rec)
}

// FormatBytes renders a byte count in human units (KB/MB with one
// decimal), matching the paper's table formatting.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
