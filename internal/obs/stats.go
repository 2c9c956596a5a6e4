package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// OpStats is one node of a per-query execution-statistics tree. The
// planner builds one OpStats per physical operator, records its
// cost-model estimates, and hands the node to the operator; the
// operator bumps the actual-work counters while it runs. All counters
// are atomics because EXPLAIN and a trace export may render a tree
// while its operators still run (a Stop deadline draining).
//
// Every mutator is nil-safe, so operators can be built without stats at
// zero cost beyond a nil check.
type OpStats struct {
	// Name is the physical operator, e.g. "PipelinedDescJoin".
	Name string
	// Detail is the planner's one-line annotation (link label, access
	// method, predicate form).
	Detail Text

	// EstNodes is the cost model's estimate of nodes this operator
	// touches (its share of the strategy cost, in the model's
	// nodes-touched unit); negative when the model has no estimate.
	EstNodes float64
	// EstOut is the estimated number of instances the operator emits;
	// negative when unknown.
	EstOut float64

	// FeedbackKey, when non-empty, names this operator for the feedback
	// loop: a cached template's first run records the operator's est/act
	// counters under FeedbackKey, so its next plan-cache hit can compare
	// the template's estimates against what happened. Planners set it to
	// the stable label of the NoK/twig root the operator produces (the
	// same label the cost model's CardHints are keyed by).
	FeedbackKey string

	// Children are the stats of the operator's input operators.
	Children []*OpStats

	timed bool

	calls       atomic.Int64 // GetNext invocations
	scanned     atomic.Int64 // document/index nodes inspected
	skipped     atomic.Int64 // scanned candidates a join skipped over unmatched
	emitted     atomic.Int64 // instances produced
	comparisons atomic.Int64 // structural/value predicate evaluations
	maxStack    atomic.Int64 // deepest operator stack observed
	elapsed     atomic.Int64 // cumulative wall time, nanoseconds (inclusive of children)
}

// NewOpStats returns a stats node for one physical operator. Its detail
// is Textf(detail, args...): with no arguments, detail verbatim.
// Estimates default to unknown.
func NewOpStats(name, detail string, args ...any) *OpStats {
	return &OpStats{Name: name, Detail: Textf(detail, args...), EstNodes: -1, EstOut: -1}
}

// Text is a line of EXPLAIN text kept as a format and its arguments and
// formatted only when read: a cached plan records its notes and its
// operators' details again on every run, and only EXPLAIN and a trace
// read them. An argument whose String builds a string (a vertex label, a
// crossing) is best passed as the pointer it is read from: boxing a
// pointer allocates nothing, and its String runs only at render.
type Text struct {
	format string
	args   []any
}

// Textf returns the text fmt.Sprintf(format, args...) renders.
func Textf(format string, args ...any) Text { return Text{format: format, args: args} }

// String renders the text; with no arguments it is the format verbatim.
func (t Text) String() string {
	if len(t.args) == 0 {
		return t.format
	}
	return fmt.Sprintf(t.format, t.args...)
}

// Adopt appends child operators' stats nodes.
func (s *OpStats) Adopt(children ...*OpStats) *OpStats {
	if s == nil {
		return nil
	}
	for _, c := range children {
		if c != nil {
			s.Children = append(s.Children, c)
		}
	}
	return s
}

// EnableTiming turns on wall-clock measurement for this node and its
// subtree (EXPLAIN ANALYZE mode).
func (s *OpStats) EnableTiming() {
	if s == nil {
		return
	}
	s.timed = true
	for _, c := range s.Children {
		c.EnableTiming()
	}
}

// AddCall counts one GetNext invocation.
func (s *OpStats) AddCall() {
	if s != nil {
		s.calls.Add(1)
	}
}

// AddScanned counts inspected input nodes.
func (s *OpStats) AddScanned(n int64) {
	if s != nil && n != 0 {
		s.scanned.Add(n)
	}
}

// AddSkipped counts candidates a scan dropped unmatched because the
// join consuming it could rule them out by position. They are part of
// scanned as well; the separate count is what lets the feedback loop
// tell "this vertex has fewer matches than estimated" from "this join
// did not need them" (see exec.observe).
func (s *OpStats) AddSkipped(n int64) {
	if s != nil && n != 0 {
		s.skipped.Add(n)
	}
}

// AddEmitted counts produced instances.
func (s *OpStats) AddEmitted(n int64) {
	if s != nil && n != 0 {
		s.emitted.Add(n)
	}
}

// AddComparisons counts predicate/containment evaluations.
func (s *OpStats) AddComparisons(n int64) {
	if s != nil && n != 0 {
		s.comparisons.Add(n)
	}
}

// ObserveStackDepth records an operator-stack high-water mark.
func (s *OpStats) ObserveStackDepth(depth int) {
	if s == nil {
		return
	}
	d := int64(depth)
	for {
		cur := s.maxStack.Load()
		if d <= cur || s.maxStack.CompareAndSwap(cur, d) {
			return
		}
	}
}

// AddElapsed accumulates wall time.
func (s *OpStats) AddElapsed(d time.Duration) {
	if s != nil && d > 0 {
		s.elapsed.Add(int64(d))
	}
}

// Start begins a wall-clock measurement; it returns the zero time when
// timing is off, which Stop treats as a no-op. The pair keeps the
// per-GetNext cost to one branch when timing is disabled.
func (s *OpStats) Start() time.Time {
	if s == nil || !s.timed {
		return time.Time{}
	}
	return time.Now()
}

// Stop ends a measurement started by Start.
func (s *OpStats) Stop(start time.Time) {
	if start.IsZero() {
		return
	}
	s.elapsed.Add(int64(time.Since(start)))
}

// Calls returns the number of GetNext invocations.
func (s *OpStats) Calls() int64 {
	if s == nil {
		return 0
	}
	return s.calls.Load()
}

// Scanned returns the nodes inspected by this operator alone.
func (s *OpStats) Scanned() int64 {
	if s == nil {
		return 0
	}
	return s.scanned.Load()
}

// Skipped returns the candidates skipped over unmatched.
func (s *OpStats) Skipped() int64 {
	if s == nil {
		return 0
	}
	return s.skipped.Load()
}

// Emitted returns the instances this operator produced.
func (s *OpStats) Emitted() int64 {
	if s == nil {
		return 0
	}
	return s.emitted.Load()
}

// Comparisons returns the predicate evaluations performed.
func (s *OpStats) Comparisons() int64 {
	if s == nil {
		return 0
	}
	return s.comparisons.Load()
}

// MaxStackDepth returns the deepest operator stack observed.
func (s *OpStats) MaxStackDepth() int64 {
	if s == nil {
		return 0
	}
	return s.maxStack.Load()
}

// Elapsed returns cumulative wall time (inclusive of children, like the
// actual-time column of a conventional EXPLAIN ANALYZE).
func (s *OpStats) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.elapsed.Load())
}

// TotalScanned sums nodes scanned across the subtree.
func (s *OpStats) TotalScanned() int64 { return s.Totals().Scanned }

// Totals is a stats subtree's work counters, summed.
type Totals struct {
	Scanned, Emitted, Comparisons, Calls int64
}

// Totals sums the subtree's work counters in one walk.
func (s *OpStats) Totals() Totals {
	if s == nil {
		return Totals{}
	}
	t := Totals{s.Scanned(), s.Emitted(), s.Comparisons(), s.Calls()}
	for _, c := range s.Children {
		ct := c.Totals()
		t.Scanned += ct.Scanned
		t.Emitted += ct.Emitted
		t.Comparisons += ct.Comparisons
		t.Calls += ct.Calls
	}
	return t
}

// Render draws the operator tree. Each row shows the operator, the
// planner's detail, and the cost-model estimates; with analyze true the
// actual counters are printed next to the estimates.
func (s *OpStats) Render(analyze bool) string {
	var sb strings.Builder
	s.render(&sb, "", "", analyze)
	return sb.String()
}

func (s *OpStats) render(sb *strings.Builder, prefix, childPrefix string, analyze bool) {
	if s == nil {
		return
	}
	sb.WriteString(prefix)
	sb.WriteString(s.Name)
	if d := s.Detail.String(); d != "" {
		sb.WriteString(" [" + d + "]")
	}
	sb.WriteString("  (" + s.columns(analyze) + ")")
	sb.WriteByte('\n')
	for i, c := range s.Children {
		last := i == len(s.Children)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		c.render(sb, childPrefix+branch, childPrefix+cont, analyze)
	}
}

// columns renders the estimate/actual cells of one row.
func (s *OpStats) columns(analyze bool) string {
	var cols []string
	est := func(v float64) string {
		if v < 0 {
			return "?"
		}
		return fmt.Sprintf("%.0f", v)
	}
	if analyze {
		cols = append(cols,
			"out est="+est(s.EstOut)+" act="+fmt.Sprintf("%d", s.Emitted()),
			"scanned est="+est(s.EstNodes)+" act="+fmt.Sprintf("%d", s.Scanned()),
		)
		if k := s.Skipped(); k > 0 {
			cols = append(cols, fmt.Sprintf("skipped=%d", k))
		}
		if c := s.Comparisons(); c > 0 {
			cols = append(cols, fmt.Sprintf("cmp=%d", c))
		}
		if d := s.MaxStackDepth(); d > 0 {
			cols = append(cols, fmt.Sprintf("stack=%d", d))
		}
		cols = append(cols, fmt.Sprintf("calls=%d", s.Calls()))
		if s.timed {
			cols = append(cols, fmt.Sprintf("time=%s", s.Elapsed().Round(time.Microsecond)))
		}
	} else {
		cols = append(cols,
			"out est="+est(s.EstOut),
			"scanned est="+est(s.EstNodes),
		)
	}
	return strings.Join(cols, " · ")
}
