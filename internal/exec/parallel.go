package exec

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"blossomtree/internal/naveval"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
)

// docRun is one document's evaluation in an EvalAllDocs fan-out.
type docRun struct {
	res  *Result
	err  error
	snap *snapshot // the pinned snapshot it ran against
}

// EvalAllDocs evaluates one query independently against every
// registered document, fanning the per-document evaluations out across
// a GOMAXPROCS-wide worker pool, and gathers their answers into one
// Result in URI order. Inside each evaluation every doc("…") URI and
// absolute path resolves to the document under evaluation, which turns
// a single-document query into a catalog-wide scan — the multi-document
// shape planContext otherwise rejects.
//
// The gathered answer is all or nothing: when any document's evaluation
// fails, EvalAllDocs returns the first failing document's error in URI
// order, naming the document and wrapping the cause.
//
// The fan-out has one ID, opts.QueryID or a fresh one, and one record
// under it in the engine's ring, failed or not: strategy "scatter", with
// the per-document records (ID "<id>-<uri>") as its children, so the
// fan-out's trace shows one query span per document. The gathered
// Result carries that record. It carries no verdict, work or rows of
// its own and is neither logged nor counted: each document's record is.
func (e *Engine) EvalAllDocs(src string, opts plan.Options) (*Result, error) {
	start := time.Now()
	q, err := parse(src)
	if err != nil {
		return nil, err
	}
	snap := e.snapshot()
	uris := snap.uris()
	parent := &obs.QueryRecord{QueryID: opts.QueryID, QueryHash: q.hash, Strategy: "scatter",
		Children: make([]*obs.QueryRecord, len(uris))}
	if parent.QueryID == "" {
		parent.QueryID = NewQueryID()
	}
	runs := make([]docRun, len(uris))
	forEachIndex(len(uris), func(i int) {
		docOpts := opts
		docOpts.QueryID = parent.QueryID + "-" + uris[i]
		parent.Children[i] = &obs.QueryRecord{}
		pin := snap.pin(uris[i])
		res, err := evalInto(parent.Children[i], pin, q, docOpts, true)
		runs[i] = docRun{res: res, err: err, snap: pin}
	})
	defer func() {
		parent.Latency = time.Since(start)
		snap.state.Recent.Put(parent)
	}()
	for i, r := range runs {
		if r.err != nil {
			return nil, fmt.Errorf("exec: document %q: %w", uris[i], r.err)
		}
	}
	return gather(parent, q, runs)
}

// gather merges the per-document results of a fan-out into one under
// the fan-out's record, in the order given: their nodes, returned nodes
// and rows. Rows of several documents share no node buffer, so the
// merged rows are their Envs. A query that constructs elements gets its
// one output here, built over every document's rows (the per-document
// evaluations build none): its outer constructor once, its return
// clause once per row, each row's paths read under the snapshot its
// document ran against.
func gather(rec *obs.QueryRecord, q *parsed, runs []docRun) (*Result, error) {
	merged := &Result{QueryRecord: rec}
	var envs []naveval.Env
	var srcs []rowSource
	for _, r := range runs {
		p := r.res
		merged.Nodes = append(merged.Nodes, p.Nodes...)
		merged.Returned = append(merged.Returned, p.Returned...)
		if p.rows != nil {
			envs = append(envs, p.Envs()...)
			srcs = append(srcs, rowSource{resolve: r.snap.resolve, rows: p.rows})
		}
	}
	if srcs != nil {
		merged.rows = envRows(envs)
	}
	if srcs != nil && hasConstructor(q.expr) {
		out, err := buildOutput(q.expr, srcs)
		if err != nil {
			return nil, err
		}
		merged.Output = out
	}
	return merged, nil
}

// pin derives a single-document snapshot: every URI resolves to the
// pinned document (the single-document fallback of resolve), carrying
// over its statistics and index. Pins are memoized per parent snapshot
// so repeated EvalAllDocs calls over one catalog reuse the same derived
// snapshots — and therefore the same snapshot versions, which is what
// lets the plan cache serve fan-out evaluations warm.
//
// A store-backed document pins lazily too: the derived snapshot carries
// the store with just this URI visible, so the document only
// materializes if the pinned evaluation actually runs.
func (s *snapshot) pin(uri string) *snapshot {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if p, ok := s.pinned[uri]; ok {
		return p
	}
	p := &snapshot{
		state:   s.state,
		version: s.state.versions.Add(1),
		docs:    map[string]entry{uri: s.docs[uri]},
		first:   uri,
		store:   s.store,
	}
	if s.pinned == nil {
		s.pinned = make(map[string]*snapshot)
	}
	s.pinned[uri] = p
	return p
}

// forEachIndex runs fn(0..n-1) across a pool of at most GOMAXPROCS
// goroutines and waits for completion. fn must write only to its own
// index's slot. It is the engine's one worker pool: the all-documents
// fan-out runs on it.
func forEachIndex(n int, fn func(int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
