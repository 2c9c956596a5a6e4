package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 3)
	r.Add("a", 2)
	r.Add("b", 1)
	before := r.Snapshot()
	if before["a"] != 5 || before["b"] != 1 {
		t.Fatalf("snapshot = %v", before)
	}
	r.Add("a", 10)
	d := r.Delta(before)
	if len(d) != 1 || d["a"] != 10 {
		t.Errorf("delta = %v, want only a=10", d)
	}
	if !strings.Contains(Format(before), "a") {
		t.Error("Format should list counter names")
	}
}

func TestDeltaKeepsCountersOnlyInBefore(t *testing.T) {
	// Regression: Delta used to drop counters present only in the
	// before-snapshot (a registry swapped or reset between snapshots),
	// silently unbalancing the reconciliation. They must surface as
	// negative deltas.
	r := NewRegistry()
	r.Add("a", 7)
	d := r.Delta(map[string]int64{"a": 2, "gone": 5, "zero": 0})
	if d["a"] != 5 {
		t.Errorf("a delta = %d, want 5", d["a"])
	}
	if d["gone"] != -5 {
		t.Errorf("counter only in before: delta = %d, want -5", d["gone"])
	}
	if _, ok := d["zero"]; ok {
		t.Error("zero-valued before-only counter should be omitted")
	}
}

func TestRegistryConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("hits", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != 8000 {
		t.Errorf("hits = %d, want 8000", got)
	}
}

func TestOpStatsNilSafety(t *testing.T) {
	var s *OpStats
	// None of these may panic on a nil receiver.
	s.AddCall()
	s.AddScanned(1)
	s.AddEmitted(1)
	s.AddComparisons(1)
	s.ObserveStackDepth(3)
	s.AddElapsed(time.Second)
	s.Stop(s.Start())
	s.EnableTiming()
	if s.Adopt(NewOpStats("x", "")) != nil {
		t.Error("nil Adopt should stay nil")
	}
	if s.Calls()+s.Scanned()+s.Emitted()+s.Comparisons()+s.MaxStackDepth() != 0 {
		t.Error("nil accessors should read zero")
	}
	if s.Render(true) != "" {
		t.Error("nil Render should be empty")
	}
}

func TestOpStatsCountersAndTotals(t *testing.T) {
	root := NewOpStats("Join", "a//b")
	left := NewOpStats("Scan", "NoK0")
	right := NewOpStats("Scan", "NoK1")
	root.Adopt(left, right)

	left.AddScanned(10)
	right.AddScanned(20)
	root.AddComparisons(7)
	root.AddEmitted(3)
	root.ObserveStackDepth(2)
	root.ObserveStackDepth(5)
	root.ObserveStackDepth(4)

	if got := root.TotalScanned(); got != 30 {
		t.Errorf("TotalScanned = %d, want 30", got)
	}
	if got := root.Totals(); got.Emitted != 3 || got.Comparisons != 7 {
		t.Errorf("Totals = %+v, want 3 emitted, 7 comparisons", got)
	}
	if got := root.MaxStackDepth(); got != 5 {
		t.Errorf("MaxStackDepth = %d, want 5", got)
	}
}

func TestOpStatsConcurrentSiblingDrain(t *testing.T) {
	// Models the parallel pre-scan: sibling stats bumped from separate
	// goroutines plus a shared parent counter.
	root := NewOpStats("root", "")
	kids := make([]*OpStats, 4)
	for i := range kids {
		kids[i] = NewOpStats("scan", "")
		root.Adopt(kids[i])
	}
	var wg sync.WaitGroup
	for _, k := range kids {
		wg.Add(1)
		go func(k *OpStats) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k.AddScanned(2)
				k.AddEmitted(1)
				root.AddComparisons(1)
			}
		}(k)
	}
	wg.Wait()
	if got := root.TotalScanned(); got != 4000 {
		t.Errorf("TotalScanned = %d, want 4000", got)
	}
	if got := root.Comparisons(); got != 2000 {
		t.Errorf("Comparisons = %d, want 2000", got)
	}
}

func TestTimingGate(t *testing.T) {
	s := NewOpStats("op", "")
	if !s.Start().IsZero() {
		t.Error("Start should be zero before EnableTiming")
	}
	s.EnableTiming()
	t0 := s.Start()
	if t0.IsZero() {
		t.Fatal("Start should measure after EnableTiming")
	}
	s.Stop(t0)
	if s.Elapsed() <= 0 {
		t.Error("Elapsed should accumulate")
	}
}

func TestRenderShape(t *testing.T) {
	root := NewOpStats("PipelinedDescJoin", "a//NoK1")
	root.EstNodes, root.EstOut = 30, 4
	child := NewOpStats("NoKScan", "NoK0 index(a)")
	child.EstNodes, child.EstOut = 20, 5
	root.Adopt(child)
	child.AddScanned(19)
	root.AddEmitted(4)

	plain := root.Render(false)
	if !strings.Contains(plain, "PipelinedDescJoin") || !strings.Contains(plain, "└─ NoKScan") {
		t.Errorf("tree shape missing:\n%s", plain)
	}
	if strings.Contains(plain, "act=") {
		t.Errorf("plain explain must not show actuals:\n%s", plain)
	}
	analyzed := root.Render(true)
	if !strings.Contains(analyzed, "out est=4 act=4") {
		t.Errorf("analyze should pair estimates with actuals:\n%s", analyzed)
	}
	if !strings.Contains(analyzed, "scanned est=20 act=19") {
		t.Errorf("child row should show scan counters:\n%s", analyzed)
	}
	if strings.Contains(analyzed, "skipped=") {
		t.Errorf("a scan that skipped nothing should not show the column:\n%s", analyzed)
	}
	child.AddSkipped(7)
	if analyzed = root.Render(true); !strings.Contains(analyzed, "act=19 · skipped=7") || child.Skipped() != 7 {
		t.Errorf("skipped candidates should follow the scan counters:\n%s", analyzed)
	}
}
