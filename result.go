package blossomtree

import (
	"sort"
	"strings"
	"sync"

	"blossomtree/internal/exec"
	"blossomtree/internal/xmltree"
)

// Node is a read-only handle to a node of a loaded document.
type Node struct {
	n *xmltree.Node
}

// IsZero reports whether the handle is empty.
func (n Node) IsZero() bool { return n.n == nil }

// Tag returns the element tag name ("" for text nodes).
func (n Node) Tag() string {
	if n.n == nil {
		return ""
	}
	return n.n.Tag
}

// Text returns the node's XPath string-value: the concatenation of its
// descendant text, trimmed.
func (n Node) Text() string { return xmltree.StringValue(n.n) }

// Attr returns the value of the named attribute.
func (n Node) Attr(name string) (string, bool) {
	if n.n == nil {
		return "", false
	}
	return n.n.Attr(name)
}

// Parent returns the parent element (zero handle at the root).
func (n Node) Parent() Node {
	if n.n == nil || n.n.Parent == nil || n.n.Parent.Kind == xmltree.DocumentNode {
		return Node{}
	}
	return Node{n: n.n.Parent}
}

// Children returns the element children, optionally filtered by tag
// ("" keeps all).
func (n Node) Children(tag string) []Node {
	if n.n == nil {
		return nil
	}
	return wrapNodes(xmltree.Children(n.n, tag))
}

// Descendants returns the element descendants in document order,
// optionally filtered by tag.
func (n Node) Descendants(tag string) []Node {
	if n.n == nil {
		return nil
	}
	return wrapNodes(xmltree.Descendants(n.n, tag))
}

// Depth returns the node's depth (document element = 1).
func (n Node) Depth() int {
	if n.n == nil {
		return 0
	}
	return n.n.Level
}

// Before reports whether n precedes o in document order.
func (n Node) Before(o Node) bool { return n.n.Before(o.n) }

// XML serializes the subtree rooted at the node.
func (n Node) XML() string {
	if n.n == nil {
		return ""
	}
	return xmltree.Serialize(n.n, xmltree.WriteOptions{})
}

// String is a short diagnostic rendering.
func (n Node) String() string { return n.n.String() }

func wrapNodes(ns []*xmltree.Node) []Node {
	out := make([]Node, len(ns))
	for i, x := range ns {
		out[i] = Node{n: x}
	}
	return out
}

// Row is one FLWOR iteration's variable bindings: each variable maps to
// the node sequence bound to it (singletons for for-variables).
type Row map[string][]Node

// Result is the outcome of a query. Its node and row handles are
// built on first use.
type Result struct {
	inner     *exec.Result
	nodesOnce sync.Once
	nodes     []Node
	rowsOnce  sync.Once
	rows      []Row
}

func newResult(r *exec.Result) *Result { return &Result{inner: r} }

// QueryID identifies this evaluation in the structured query log and the
// engine's trace ring (Engine.TraceJSON, blossomd's GET /trace/{queryID}).
func (r *Result) QueryID() string { return r.inner.QueryID }

// Strategy names the executed join strategy as EXPLAIN's headline does
// ("PL", "NL", "TS"), "XH" for navigational evaluation, or "scatter"
// for a result gathered from an all-documents fan-out.
func (r *Result) Strategy() string { return r.inner.Strategy }

// Cached reports whether the evaluation's physical plan was served
// from the engine's compiled-plan cache rather than compiled for this
// run.
func (r *Result) Cached() bool { return r.inner.Cached }

// NavReason says why the query routed to the navigational fallback
// instead of a BlossomTree plan ("" for planned runs and for an
// explicitly requested navigational strategy).
func (r *Result) NavReason() string { return r.inner.NavReason }

// Replanned reports whether the evaluation ran a plan template the
// feedback loop had recompiled with observed cardinalities, after the
// cached template's estimates drifted from what its first run observed.
func (r *Result) Replanned() bool { return r.inner.Replanned }

// Drift returns the est/act ratio that triggered the replan (0 when
// Replanned is false).
func (r *Result) Drift() float64 { return r.inner.Drift }

// Nodes returns a path query's result nodes (distinct, document order).
// For FLWOR queries whose return clause is a bare variable/path, use
// Rows for the bindings and XML for what the return clause returns.
func (r *Result) Nodes() []Node {
	r.nodesOnce.Do(func() { r.nodes = wrapNodes(r.inner.Nodes) })
	return r.nodes
}

// Rows returns the FLWOR iterations' variable bindings in iteration
// order (after where, residual filters and order by).
func (r *Result) Rows() []Row {
	r.rowsOnce.Do(func() {
		for _, env := range r.inner.Envs() {
			row := make(Row, len(env))
			for v, ns := range env {
				row[v] = wrapNodes(ns)
			}
			r.rows = append(r.rows, row)
		}
	})
	return r.rows
}

// Len returns the number of results: rows for FLWOR queries, nodes for
// path queries.
func (r *Result) Len() int { return r.inner.Len() }

// XML serializes the query's output: the constructed document when the
// query has constructors, otherwise the result nodes serialized in
// document order, or a FLWOR's returned nodes in iteration order
// (elements as markup, text nodes as their text). An empty answer
// returns "".
func (r *Result) XML() string { return r.serialize(xmltree.WriteOptions{}) }

// XMLIndent is XML with pretty-printing. The node-sequence fallback
// separates serialized nodes with newlines.
func (r *Result) XMLIndent() string {
	return r.serialize(xmltree.WriteOptions{Indent: true})
}

func (r *Result) serialize(opts xmltree.WriteOptions) string {
	if r.inner.Output != nil {
		return r.inner.Output.Serialize(opts)
	}
	nodes := r.inner.Nodes
	if len(nodes) == 0 {
		nodes = r.inner.Returned
	}
	var sb strings.Builder
	for i, n := range nodes {
		if i > 0 && opts.Indent {
			sb.WriteByte('\n')
		}
		xmltree.Write(&sb, n, opts)
	}
	return sb.String()
}

// Plan renders the executed physical plan. Navigational-fallback
// evaluations render the fallback routing header instead; an explicitly
// requested navigational run yields "".
func (r *Result) Plan() string {
	if r.inner.Plan == nil {
		return r.inner.FallbackExplain()
	}
	return r.inner.Plan.Explain()
}

// ExplainAnalyze renders the executed plan's operator tree with the
// cost model's estimates next to the counters the run recorded (empty
// for navigational evaluation). Wall-time columns appear when the query
// ran with Options.Analyze.
func (r *Result) ExplainAnalyze() string {
	if r.inner.Plan == nil {
		return r.inner.FallbackExplain()
	}
	return r.inner.Plan.ExplainTree(true)
}

// Column collects one variable's first-node binding across all rows, a
// convenience for the common singleton case.
func (r *Result) Column(variable string) []Node {
	var out []Node
	for _, row := range r.Rows() {
		if ns := row[variable]; len(ns) > 0 {
			out = append(out, ns[0])
		}
	}
	return out
}

// SortNodes orders a node slice in document order (helper for callers
// that merge node sets).
func SortNodes(ns []Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].n.Start < ns[j].n.Start })
}
