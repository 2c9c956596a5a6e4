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

// BatchResult pairs one query of a batch with its outcome.
type BatchResult struct {
	Query  string
	Result *Result
	Err    error
}

// EvalBatch evaluates a batch of queries concurrently across a worker
// pool of at most workers goroutines (workers <= 0 means GOMAXPROCS)
// and returns one result per query, in input order. All evaluations of
// one call share the engine snapshot current when EvalBatch was called,
// so the batch sees a consistent document catalog even while other
// goroutines Add documents.
func (e *Engine) EvalBatch(srcs []string, opts plan.Options, workers int) []BatchResult {
	out := make([]BatchResult, len(srcs))
	snap := e.snapshot()
	forEachIndex(len(srcs), workers, func(i int) {
		out[i] = BatchResult{Query: srcs[i]}
		q, err := parse(srcs[i])
		if err != nil {
			out[i].Err = err
			return
		}
		// Distinct query IDs per entry even when the caller pinned one, as
		// in EvalAllDocs.
		qopts := opts
		if qopts.QueryID != "" {
			qopts.QueryID = fmt.Sprintf("%s-%d", qopts.QueryID, i)
		}
		out[i].Result, out[i].Err = evalExpr(snap, q, qopts)
	})
	return out
}

// DocResult pairs one registered document of an EvalAllDocs call with
// the query's outcome on it.
type DocResult struct {
	URI    string
	Result *Result
	Err    error
}

// EvalAllDocs evaluates one query independently against every
// registered document, fanning the per-document evaluations out across
// at most workers goroutines (workers <= 0 means GOMAXPROCS). Inside
// each evaluation every doc("…") URI and absolute path resolves to the
// document under evaluation, which turns a single-document query into a
// catalog-wide scan — the multi-document shape planContext otherwise
// rejects. Results are keyed by URI and returned sorted by URI.
//
// The fan-out has one ID, opts.QueryID or a fresh one, and one record
// under it in the engine's ring: strategy "scatter", with the
// per-document records (ID "<id>-<uri>") as its children, so the
// fan-out's trace shows one query span per document. That record is
// returned too. It carries no verdict, work or rows of its own and is
// neither logged nor counted: each document's record is.
func (e *Engine) EvalAllDocs(src string, opts plan.Options, workers int) ([]DocResult, *obs.QueryRecord, error) {
	start := time.Now()
	q, err := parse(src)
	if err != nil {
		return nil, nil, err
	}
	snap := e.snapshot()
	uris := snap.uris()
	parent := &obs.QueryRecord{QueryID: opts.QueryID, QueryHash: q.hash, Strategy: "scatter",
		Children: make([]*obs.QueryRecord, len(uris))}
	if parent.QueryID == "" {
		parent.QueryID = NewQueryID()
	}
	out := make([]DocResult, len(uris))
	forEachIndex(len(uris), workers, func(i int) {
		docOpts := opts
		docOpts.QueryID = parent.QueryID + "-" + uris[i]
		parent.Children[i] = &obs.QueryRecord{}
		res, err := evalInto(parent.Children[i], snap.pin(uris[i]), q, docOpts)
		out[i] = DocResult{URI: uris[i], Result: res, Err: err}
	})
	parent.Latency = time.Since(start)
	snap.state.Recent.Put(parent)
	return out, parent, nil
}

// Gather merges the per-document results of an all-documents fan-out
// into one under the fan-out's record, in the order given: their nodes,
// returned nodes and rows. Rows of several documents share no node
// buffer, so the merged rows are their Envs. Constructed outputs stay
// per document.
func Gather(rec *obs.QueryRecord, parts []*Result) *Result {
	merged := &Result{QueryRecord: rec}
	var envs []naveval.Env
	rows := false
	for _, p := range parts {
		merged.Nodes = append(merged.Nodes, p.Nodes...)
		merged.Returned = append(merged.Returned, p.Returned...)
		envs = append(envs, p.Envs()...)
		rows = rows || p.rows != nil
	}
	if rows {
		merged.rows = envRows(envs)
	}
	return merged
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

// forEachIndex runs fn(0..n-1) across a pool of at most workers
// goroutines (workers <= 0 means GOMAXPROCS) and waits for completion.
// fn must write only to its own index's slot. It is the engine's one
// worker pool: batches and all-documents fan-outs both run on it.
func forEachIndex(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
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
