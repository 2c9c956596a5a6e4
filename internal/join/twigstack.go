package join

import (
	"fmt"
	"sort"

	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// TwigStack is the holistic twig-join baseline of Table 3 ("TS"), after
// Bruno, Koudas and Srivastava [7]. It evaluates a whole pattern tree
// against a document using per-vertex tag-index streams and chained
// stacks: each root-to-leaf path of the twig is evaluated by the
// PathStack algorithm (linear merge of the path's streams with a stack
// per pattern vertex, emitting compactly-encoded path solutions), and
// the per-leaf path solutions are then merge-joined on their shared
// prefix vertices into twig matches.
//
// As in the original system, ancestor-descendant edges are enforced by
// the stacks; parent-child (and the root's document-element anchoring)
// are post-filtered on the merged matches, which preserves correctness
// for the mixed //-and-/ queries of the benchmark suite while staying
// optimal for the all-// queries TwigStack is optimal on.
//
// Restrictions (the plan layer falls back to the other operators when
// they apply): no following-sibling edges, no positional constraints, no
// optional ("l") edges — the classic algorithm is defined for mandatory
// structural twigs.
type TwigStack struct {
	root     *core.Vertex
	vertices []*core.Vertex
	ix       *index.TagIndex
	paths    [][]*core.Vertex // root-to-leaf vertex chains

	// PushCount counts stack pushes across all PathStack runs (a proxy
	// for holistic-join work reported by the ablation benches).
	PushCount int
	// Stats, when non-nil, receives stream-element scans, merge-phase
	// pair tests, and per-vertex stack depths for EXPLAIN ANALYZE.
	Stats *obs.OpStats
	// Gov, when non-nil, charges stream advances against the query's
	// node budget (through the per-vertex index streams), polls
	// cancellation, and fires a fault per emitted path
	// solution; a violation aborts Run with the typed error.
	Gov *gov.Governor
	// Keep lists the vertices whose bindings the caller needs (returning
	// variables). When set, the merge phase projects intermediate
	// matches onto Keep plus the vertices still required by later path
	// joins and deduplicates — a semi-join reduction that keeps the
	// distinct-binding result while avoiding the combinatorial
	// enumeration of existential witnesses. Nil keeps every vertex (full
	// twig-match enumeration).
	Keep []*core.Vertex
}

// TwigMatch assigns a matched node to every pattern vertex (keyed by
// vertex ID).
type TwigMatch map[int]*xmltree.Node

// NewTwigStack prepares a holistic join for the pattern tree rooted at
// root (which must not be a document-root vertex; pass its child and let
// the root edge be post-filtered).
func NewTwigStack(root *core.Vertex, ix *index.TagIndex) (*TwigStack, error) {
	ts := &TwigStack{root: root, ix: ix}
	var walk func(v *core.Vertex, chain []*core.Vertex) error
	walk = func(v *core.Vertex, chain []*core.Vertex) error {
		if v.ParentRel == core.RelFollowingSibling && v != root {
			return fmt.Errorf("join: TwigStack does not support following-sibling edges")
		}
		if _, has := v.PositionConstraint(); has {
			return fmt.Errorf("join: TwigStack does not support positional constraints")
		}
		if v != root && v.ParentMode == core.Optional {
			return fmt.Errorf("join: TwigStack does not support optional edges")
		}
		ts.vertices = append(ts.vertices, v)
		chain = append(chain, v)
		if len(v.Children) == 0 {
			path := make([]*core.Vertex, len(chain))
			copy(path, chain)
			ts.paths = append(ts.paths, path)
			return nil
		}
		for _, c := range v.Children {
			if err := walk(c, chain); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, nil); err != nil {
		return nil, err
	}
	return ts, nil
}

// stream builds the vertex's input stream: its tag's inverted list
// filtered by the vertex's value constraints.
func (ts *TwigStack) stream(v *core.Vertex) []*xmltree.Node {
	nodes := ts.ix.Nodes(v.Test)
	if len(v.Constraints) == 0 {
		return nodes
	}
	var out []*xmltree.Node
	for _, n := range nodes {
		if v.MatchesNode(n) {
			out = append(out, n)
		}
	}
	return out
}

// tsEntry is one stack entry: a node plus the index of its containing
// entry in the parent vertex's stack at push time.
type tsEntry struct {
	node      *xmltree.Node
	parentIdx int
}

// pathSolution assigns nodes to one root-to-leaf chain, root first.
type pathSolution []*xmltree.Node

// pathStack runs the PathStack algorithm over one root-to-leaf chain
// and returns all its path solutions (each a containment chain
// node₀ ≻ node₁ ≻ … ≻ nodeₗ). A governance violation aborts it with
// the typed error.
func (ts *TwigStack) pathStack(path []*core.Vertex) ([]pathSolution, error) {
	k := len(path)
	streams := make([]*index.Stream, k)
	for i, v := range path {
		streams[i] = index.NewStream(ts.stream(v))
		streams[i].Stats = ts.Stats
		streams[i].Gov = ts.Gov
	}
	stacks := make([][]tsEntry, k)
	var solutions []pathSolution
	leaf := k - 1

	var expand func(level, upTo int, suffix pathSolution)
	expand = func(level, upTo int, suffix pathSolution) {
		if level < 0 {
			sol := make(pathSolution, len(suffix))
			copy(sol, suffix)
			solutions = append(solutions, sol)
			// A fired fault or exhausted budget becomes sticky in the
			// governor; the main loop aborts at its next check.
			_ = ts.Gov.Emitted(fault.SiteTwigStack)
			return
		}
		for idx := 0; idx <= upTo && idx < len(stacks[level]); idx++ {
			e := stacks[level][idx]
			if e.node == suffix[0] {
				// Containment is strict: a node cannot be its own
				// ancestor (same-tag chains share inverted lists, so the
				// same node can sit on two adjacent stacks).
				continue
			}
			expand(level-1, e.parentIdx, append(pathSolution{e.node}, suffix...))
		}
	}

	for !streams[leaf].EOF() {
		if err := ts.Gov.Poll(); err != nil {
			return nil, err
		}
		// qmin: the non-exhausted stream with the smallest head.
		qmin := -1
		for i := 0; i < k; i++ {
			if streams[i].EOF() {
				continue
			}
			if qmin == -1 || streams[i].Head().Start < streams[qmin].Head().Start {
				qmin = i
			}
		}
		if qmin == -1 {
			break
		}
		h := streams[qmin].Head()
		// Pop every entry that ends before the new node starts.
		for i := 0; i < k; i++ {
			for len(stacks[i]) > 0 && stacks[i][len(stacks[i])-1].node.End < h.Start {
				stacks[i] = stacks[i][:len(stacks[i])-1]
			}
		}
		if qmin == 0 || len(stacks[qmin-1]) > 0 {
			parentIdx := -1
			if qmin > 0 {
				parentIdx = len(stacks[qmin-1]) - 1
			}
			stacks[qmin] = append(stacks[qmin], tsEntry{node: h, parentIdx: parentIdx})
			ts.PushCount++
			ts.Stats.ObserveStackDepth(len(stacks[qmin]))
			if qmin == leaf {
				e := stacks[leaf][len(stacks[leaf])-1]
				expand(leaf-1, e.parentIdx, pathSolution{e.node})
				stacks[leaf] = stacks[leaf][:len(stacks[leaf])-1]
				if err := ts.Gov.Err(); err != nil {
					return nil, err
				}
			}
		}
		streams[qmin].Advance()
	}
	return solutions, ts.Gov.Err()
}

// Run evaluates the twig and returns its matches. With Keep unset every
// twig match is enumerated; with Keep set, matches are the distinct
// combinations of the kept vertices' bindings (sufficient for XPath
// result projection and variable binding, and immune to the witness
// blowup of existential branches). Matches are grouped by the merge, not
// globally document-ordered — consumers sort as needed.
func (ts *TwigStack) Run() ([]TwigMatch, error) {
	if len(ts.paths) == 0 {
		return nil, nil
	}
	// Evaluate each root-to-leaf path; parent-child edges and the root's
	// anchoring are enforced per path solution here, so the merge phase
	// is containment-complete.
	pathSols := make([][]pathSolution, len(ts.paths))
	for i, p := range ts.paths {
		raw, err := ts.pathStack(p)
		if err != nil {
			return nil, err
		}
		kept := raw[:0]
		for _, sol := range raw {
			if ts.pathStructOK(p, sol) {
				kept = append(kept, sol)
			}
		}
		pathSols[i] = kept
		if len(kept) == 0 {
			return nil, nil // a mandatory path with no solutions kills the twig
		}
	}

	// needed(i): vertex IDs that must survive after joining path i —
	// the kept vertices plus everything later paths join or bind on.
	keepIDs := map[int]bool{}
	if ts.Keep == nil {
		for _, v := range ts.vertices {
			keepIDs[v.ID] = true
		}
	} else {
		for _, v := range ts.Keep {
			keepIDs[v.ID] = true
		}
	}
	needed := func(pi int) map[int]bool {
		out := map[int]bool{}
		for id := range keepIDs {
			out[id] = true
		}
		for _, path := range ts.paths[pi+1:] {
			for _, v := range path {
				out[v.ID] = true
			}
		}
		return out
	}
	reduce := func(ms []TwigMatch, need map[int]bool) []TwigMatch {
		seen := map[string]bool{}
		out := ms[:0]
		for _, m := range ms {
			pm := TwigMatch{}
			for _, v := range ts.vertices {
				if need[v.ID] {
					if n, ok := m[v.ID]; ok {
						pm[v.ID] = n
					}
				}
			}
			k := twigKey(pm, ts.vertices)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, pm)
		}
		return out
	}

	matches := make([]TwigMatch, 0, len(pathSols[0]))
	for _, sol := range pathSols[0] {
		m := TwigMatch{}
		for j, v := range ts.paths[0] {
			m[v.ID] = sol[j]
		}
		matches = append(matches, m)
	}
	matches = reduce(matches, needed(0))

	for pi := 1; pi < len(ts.paths); pi++ {
		path := ts.paths[pi]
		// Shared prefix: vertices of this path already bound by earlier
		// paths (tree structure and DFS path order make this a prefix).
		bound := map[int]bool{}
		for _, p := range ts.paths[:pi] {
			for _, v := range p {
				bound[v.ID] = true
			}
		}
		shared := 0
		for shared < len(path) && bound[path[shared].ID] {
			shared++
		}
		// Hash the new path's solutions by their shared-prefix nodes.
		idx := make(map[string][]pathSolution)
		for _, sol := range pathSols[pi] {
			k := prefixKey(sol[:shared])
			idx[k] = append(idx[k], sol)
		}
		var next []TwigMatch
		for _, m := range matches {
			if err := ts.Gov.Poll(); err != nil {
				return nil, err
			}
			pk := matchKey(m, path[:shared])
			ts.Stats.AddComparisons(1)
			for _, sol := range idx[pk] {
				nm := TwigMatch{}
				for id, n := range m {
					nm[id] = n
				}
				for j := shared; j < len(path); j++ {
					nm[path[j].ID] = sol[j]
				}
				next = append(next, nm)
			}
		}
		matches = reduce(next, needed(pi))
		if len(matches) == 0 {
			return nil, nil
		}
	}
	return matches, nil
}

// pathStructOK verifies one path solution's parent-child edges and the
// pattern root's document-element anchoring.
func (ts *TwigStack) pathStructOK(path []*core.Vertex, sol pathSolution) bool {
	root := path[0]
	if root.Parent != nil && root.Parent.IsDocRoot() && root.ParentRel == core.RelChild && sol[0].Level != 1 {
		return false
	}
	for j := 1; j < len(path); j++ {
		if path[j].ParentRel == core.RelChild && sol[j].Parent != sol[j-1] {
			return false
		}
	}
	return true
}

// twigKey serializes a match's bindings in vertex order.
func twigKey(m TwigMatch, vs []*core.Vertex) string {
	b := make([]byte, 0, len(m)*12)
	for _, v := range vs {
		if n, ok := m[v.ID]; ok {
			for i := 0; i < 4; i++ {
				b = append(b, byte(v.ID>>(i*8)))
			}
			s := n.Start
			for i := 0; i < 8; i++ {
				b = append(b, byte(s>>(i*8)))
			}
		}
	}
	return string(b)
}

func prefixKey(nodes []*xmltree.Node) string {
	b := make([]byte, 0, len(nodes)*8)
	for _, n := range nodes {
		s := n.Start
		for i := 0; i < 8; i++ {
			b = append(b, byte(s>>(i*8)))
		}
	}
	return string(b)
}

func matchKey(m TwigMatch, vs []*core.Vertex) string {
	nodes := make([]*xmltree.Node, len(vs))
	for i, v := range vs {
		nodes[i] = m[v.ID]
	}
	return prefixKey(nodes)
}

// Project returns the distinct nodes matched by the given vertex across
// all matches, in document order.
func Project(matches []TwigMatch, v *core.Vertex) []*xmltree.Node {
	seen := map[*xmltree.Node]bool{}
	var out []*xmltree.Node
	for _, m := range matches {
		if n := m[v.ID]; n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sortNodes(out)
	return out
}

func sortNodes(ns []*xmltree.Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Start < ns[j].Start })
}
