package join

import (
	"slices"

	"blossomtree/internal/core"
	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/nestedlist"
	"blossomtree/internal/obs"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// HashJoin is the equi-join of a non-negated = value crossing between
// two inputs. It materializes the inner input into a hash table keyed by
// the OpEq keys of each instance's Key endpoint (core.AppendKeys: a
// number when the trimmed value is one, the raw text otherwise, an
// instance under each of its distinct keys), then streams the outer
// input and pairs each outer instance with the inner instances sharing
// one of its keys. A pair that also passes Residual — every other
// crossing between the two inputs — is merged.
//
// The pairs it emits, and their order (outer-major, then ascending
// inner), are those of a NestedLoopJoin on the Key crossing followed by
// a CrossingFilter per residual crossing, so the two plans answer byte
// for byte alike; the hash join tests one candidate pair per key match
// instead of every pair.
type HashJoin struct {
	Outer, Inner Operator
	Key          Span
	// Residual, when non-nil, is tested on each candidate pair before it
	// is merged.
	Residual Predicate
	// Gov, when non-nil, polls cancellation per instance keyed and per
	// candidate pair and fires emission faults; a violation sets Err and
	// ends the stream.
	Gov *gov.Governor

	// Stats, when non-nil, counts the instances keyed (both inputs) and
	// the candidate pairs tested for EXPLAIN ANALYZE.
	Stats *obs.OpStats

	inner []*nestedlist.List
	table map[xpath.EqKey][]int32 // key → inner instances, ascending
	init  bool

	outer *nestedlist.List // the outer instance being probed
	cands []int32          // its candidate inner instances, ascending
	ci    int
	union []int32 // cands' buffer when the outer instance has several keys

	nodes []*xmltree.Node // key endpoint projection, reused per instance
	keys  []xpath.EqKey   // its distinct keys, reused per instance
	Err   error
}

// GetNext returns the next joined instance or nil.
func (j *HashJoin) GetNext() *nestedlist.List {
	if j.Err != nil {
		return nil
	}
	if !j.init {
		j.init = true
		if j.Err = j.build(); j.Err != nil {
			return nil
		}
	}
	for {
		for j.ci < len(j.cands) {
			n := j.inner[j.cands[j.ci]]
			j.ci++
			if l := j.pair(n); l != nil || j.Err != nil {
				return l
			}
		}
		if j.outer = j.Outer.GetNext(); j.outer == nil {
			return nil
		}
		if j.Err = j.probe(); j.Err != nil {
			return nil
		}
	}
}

// build drains the inner input into the hash table.
func (j *HashJoin) build() error {
	j.inner = Drain(j.Inner)
	j.table = make(map[xpath.EqKey][]int32, len(j.inner))
	_, innerSlot, _, innerAttr := j.Key.slots()
	for i, l := range j.inner {
		keys, err := j.keysOf(l, innerSlot, innerAttr)
		if err != nil {
			return err
		}
		for _, k := range keys {
			j.table[k] = append(j.table[k], int32(i))
		}
	}
	return nil
}

// probe sets cands to the inner instances sharing a key with the
// current outer instance, ascending and each once.
func (j *HashJoin) probe() error {
	outerSlot, _, outerAttr, _ := j.Key.slots()
	keys, err := j.keysOf(j.outer, outerSlot, outerAttr)
	if err != nil {
		return err
	}
	j.ci = 0
	switch len(keys) {
	case 0:
		j.cands = nil
	case 1:
		j.cands = j.table[keys[0]]
	default:
		j.union = j.union[:0]
		for _, k := range keys {
			j.union = append(j.union, j.table[k]...)
		}
		slices.Sort(j.union)
		j.cands = slices.Compact(j.union)
	}
	return nil
}

// keysOf returns an instance's distinct keys at slot, in a buffer the
// next call reuses.
func (j *HashJoin) keysOf(l *nestedlist.List, slot int, attr string) ([]xpath.EqKey, error) {
	j.Stats.AddComparisons(1)
	if err := j.Gov.Poll(); err != nil {
		return nil, err
	}
	j.nodes = l.AppendSlot(j.nodes[:0], slot)
	j.keys = core.AppendKeys(j.keys[:0], j.nodes, attr)
	return j.keys, nil
}

// pair tests one candidate pair against the residual and merges it when
// it passes; nil with Err unset means the pair failed the residual.
func (j *HashJoin) pair(n *nestedlist.List) *nestedlist.List {
	j.Stats.AddComparisons(1)
	if j.Err = j.Gov.Poll(); j.Err != nil {
		return nil
	}
	if j.Residual != nil {
		ok, err := j.Residual(j.outer, n)
		if j.Err = err; err != nil || !ok {
			return nil
		}
	}
	merged, err := nestedlist.Merge(j.outer, n)
	if j.Err = err; err != nil {
		return nil
	}
	if j.Err = j.Gov.Emitted(fault.SiteHashJoin); j.Err != nil {
		return nil
	}
	return merged
}
