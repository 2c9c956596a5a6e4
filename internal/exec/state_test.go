package exec

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"blossomtree/internal/xmltree"
)

// nestedDoc parses <r> holding n <a><b/></a> pairs.
func nestedDoc(t *testing.T, n int) *xmltree.Document {
	t.Helper()
	return mustParseDoc(t, "<r>"+strings.Repeat("<a><b/></a>", n)+"</r>")
}

// TestEnginesAreIndependent: two engines serving different documents
// under one URI run the same query text. Each keeps its own plan cache
// (and with it what its templates observed) and trace ring, and an engine nobody references any
// more releases its documents — the plan cache used to be a process
// global that pinned every document a cached plan was compiled against.
func TestEnginesAreIndependent(t *testing.T) {
	const q, runs = `//a//b`, 40

	// run evaluates q runs times and returns the first result's query ID.
	run := func(e *Engine, want int) string {
		t.Helper()
		var firstID string
		for i := 0; i < runs; i++ {
			res, err := e.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Nodes) != want {
				t.Fatalf("run %d: %d nodes, want %d", i, len(res.Nodes), want)
			}
			if res.Cached != (i > 0) {
				t.Fatalf("run %d on a fresh engine: Cached = %v", i, res.Cached)
			}
			if i == 0 {
				firstID = res.QueryID
			}
		}
		return firstID
	}

	// The first engine lives only inside this function: once it returns,
	// nothing but a process-wide structure could still reach its document.
	collected := make(chan struct{})
	firstID := func() string {
		doc := nestedDoc(t, 5)
		// The finalizer sits on the Document, not on its root node: nodes
		// point at their parents, and the runtime finalizes no object that
		// is reachable from itself.
		runtime.SetFinalizer(doc, func(*xmltree.Document) { close(collected) })
		e1 := New()
		e1.Add("d", doc)
		id := run(e1, 5)
		if _, ok := e1.State().Recent.Get(id); !ok {
			t.Fatalf("engine 1 does not know its own query %s", id)
		}
		return id
	}()

	e2 := New()
	e2.Add("d", nestedDoc(t, 9))
	run(e2, 9)

	if _, ok := e2.State().Recent.Get(firstID); ok {
		t.Errorf("engine 2 serves the trace of engine 1's query %s", firstID)
	}

	// The engine keeps no sync.Pool, so no process-wide cache may hold
	// the document. Two cycles still drain any standard-library pool: the
	// first moves what it holds to its victim cache, the second drops it.
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Error("engine 1's document is still reachable after the engine was dropped")
	}
	runtime.KeepAlive(e2)
}
