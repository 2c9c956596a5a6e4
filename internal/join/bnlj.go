package join

import (
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/index"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/nok"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
)

// BoundedNLJoin is the bounded nested-loop //-join of §4.3: the outer
// NoK is always on the left, and for every outer instance the inner NoK
// is re-matched by a scan bounded to the region (p₁, p₂) of the outer
// join node — the outer match's subtree — instead of the whole document:
// the inner root's postings inside that region, a sub-run of
// InnerPostings found by binary search. It remains correct on recursive
// documents (where the pipelined join is not), at the cost of one
// bounded scan per outer join node.
type BoundedNLJoin struct {
	Outer     Operator
	OuterSlot int
	Inner     *nok.Matcher
	// InnerPostings is the stream of the inner root's tag test
	// (index.TagIndex.Stream(Inner.RootTest())), taken once per run.
	InnerPostings index.Stream
	InnerSlot     int
	PerPair       bool
	Optional      bool

	// Gov, when non-nil, governs the inner bounded scans (every posting
	// they read charges the query's node budget through the inner
	// iterators) and fires emission faults; a violation sets Err and
	// ends the stream.
	Gov *gov.Governor

	// Stats, when non-nil, receives the inner scans' postings read and
	// the per-inner containment/dedup tests for EXPLAIN ANALYZE.
	Stats *obs.OpStats

	queue []*nestedlist.List
	done  bool
	// ScannedNodes accumulates the inner scans' postings read (the I/O
	// proxy the experiments report).
	ScannedNodes int
	Err          error
}

// GetNext returns the next joined instance or nil.
func (j *BoundedNLJoin) GetNext() *nestedlist.List {
	for {
		if j.Err != nil {
			return nil
		}
		if len(j.queue) > 0 {
			l := j.queue[0]
			j.queue = j.queue[1:]
			if err := j.Gov.Emitted(fault.SiteBoundedNL); err != nil {
				j.Err = err
				return nil
			}
			return l
		}
		if j.done {
			return nil
		}
		m := j.Outer.GetNext()
		if m == nil {
			j.done = true
			return nil
		}
		j.joinOne(m)
	}
}

// joinOne computes all join results for one outer instance, appending
// them to the queue.
func (j *BoundedNLJoin) joinOne(m *nestedlist.List) {
	outerNodes := m.ProjectSlot(j.OuterSlot)
	matched := false
	acc := m
	var anchors []*xmltree.Node
	var batch []*nestedlist.List
	single := len(outerNodes) == 1
	// Deduplicate inner instances across overlapping outer regions
	// (nested outer nodes in recursive documents re-scan shared
	// subtrees); an instance is identified by its anchor node plus its
	// ordinal among the anchor's expanded instances, which is stable
	// across scans.
	seen := map[[2]int]bool{}
	for _, a := range outerNodes {
		it := nok.NewIterator(j.Inner, j.InnerPostings.Within(a))
		it.Gov = j.Gov
		local := map[int]int{}
		for n := it.GetNext(); n != nil; n = it.GetNext() {
			j.Stats.AddComparisons(1)
			if anchor := n.ProjectSlot(j.InnerSlot); len(anchor) > 0 {
				start := anchor[0].Start
				key := [2]int{start, local[start]}
				local[start]++
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			if j.PerPair {
				merged, err := nestedlist.Merge(m, n)
				if err != nil {
					j.Err = err
					return
				}
				j.queue = append(j.queue, merged)
				matched = true
			} else {
				if single {
					batch = append(batch, n)
				} else {
					merged, err := nestedlist.Merge(acc, n)
					if err != nil {
						j.Err = err
						return
					}
					acc = merged
				}
				matched = true
				if as := n.ProjectSlot(j.InnerSlot); len(as) > 0 {
					anchors = append(anchors, as[0])
				}
			}
		}
		j.ScannedNodes += it.ScannedNodes
		j.Stats.AddScanned(int64(it.ScannedNodes))
		if it.Err != nil {
			j.Err = it.Err
			return
		}
	}
	if len(batch) > 0 {
		inner, err := nestedlist.MergeBalanced(batch)
		if err == nil {
			acc, err = nestedlist.Merge(acc, inner)
		}
		if err != nil {
			j.Err = err
			return
		}
	}
	switch {
	case matched && !j.PerPair:
		if !j.Optional {
			// Mandatory predicate subtree: every outer-slot item needs
			// its own witness.
			pruned, ok := pruneWitnessless(acc, j.OuterSlot, anchors)
			if !ok {
				return
			}
			acc = pruned
		}
		j.queue = append(j.queue, acc)
	case !matched && j.Optional:
		j.queue = append(j.queue, m)
	}
}
