package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Hit(SiteNoKEmit); err != nil {
		t.Fatalf("nil injector Hit returned %v", err)
	}
	if n := in.Hits(SiteNoKEmit); n != 0 {
		t.Fatalf("nil injector Hits = %d", n)
	}
}

func TestFailAtFiresExactlyOnce(t *testing.T) {
	boom := errors.New("boom")
	in := New().FailAt(SitePipelined, 3, boom)
	for i := 1; i <= 5; i++ {
		err := in.Hit(SitePipelined)
		if i == 3 {
			if !errors.Is(err, boom) {
				t.Fatalf("hit %d: got %v, want boom", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d: unexpected %v", i, err)
		}
	}
	if n := in.Hits(SitePipelined); n != 5 {
		t.Fatalf("Hits = %d, want 5", n)
	}
	// Other sites are unaffected.
	if err := in.Hit(SiteTwigStack); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestFailAtDefaultError(t *testing.T) {
	in := New().FailAt(SiteNoKScan, 1, nil)
	err := in.Hit(SiteNoKScan)
	if err == nil || !strings.Contains(err.Error(), string(SiteNoKScan)) {
		t.Fatalf("default error = %v, want it to name the site", err)
	}
}

func TestPanicAt(t *testing.T) {
	in := New().PanicAt(SiteNestedLoop, 2)
	if err := in.Hit(SiteNestedLoop); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("hit 2 did not panic")
		}
		if !strings.Contains(r.(string), string(SiteNestedLoop)) {
			t.Fatalf("panic value %v does not name the site", r)
		}
	}()
	in.Hit(SiteNestedLoop)
}

// TestConcurrentHits checks the injector under parallel hitters: the
// armed rule fires exactly once and the counter is exact.
func TestConcurrentHits(t *testing.T) {
	boom := errors.New("boom")
	in := New().FailAt(SiteIndexStream, 50, boom)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	fired := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := in.Hit(SiteIndexStream); err != nil {
					fired <- err
				}
			}
		}()
	}
	wg.Wait()
	close(fired)
	var n int
	for err := range fired {
		if !errors.Is(err, boom) {
			t.Fatalf("unexpected error %v", err)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("rule fired %d times, want exactly 1", n)
	}
	if got := in.Hits(SiteIndexStream); got != workers*per {
		t.Fatalf("Hits = %d, want %d", got, workers*per)
	}
}
