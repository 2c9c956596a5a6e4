// Package fault is a deterministic fault-injection hook for the
// executor's robustness tests. Physical operators consult an Injector
// (through the query governor) at their instrumentation points — one
// named Site per operator family, hit once per emission or poll — and
// an armed rule fires an error or a panic on the k-th hit of its site.
//
// The injector is build-tag-free and nil by default: a nil *Injector is
// a valid no-op (every method is nil-safe), so production query paths
// pay a single pointer check. Tests arm rules to cancel or crash at the
// first, middle, or last emission inside each operator and assert the
// engine unwinds cleanly.
package fault

import (
	"fmt"
	"sync"
)

// Site names one instrumentation point family. Operators pass their
// site on every hit, so rules can target one operator precisely.
type Site string

// Instrumentation sites the operators consult. One per physical
// operator family, hit at each emission (joins, NoK) or cursor poll
// (index streams, navigational steps).
const (
	SiteNoKScan     Site = "nok.scan"       // NoK iterator anchor scans
	SiteNoKEmit     Site = "nok.emit"       // NoK iterator instance emissions
	SitePipelined   Site = "join.pipelined" // PipelinedDescJoin emissions, rescanning or not
	SiteNestedLoop  Site = "join.nested-loop"
	SiteHashJoin    Site = "join.hash"
	SiteTwigStack   Site = "join.twigstack"
	SiteIndexStream Site = "index.stream" // index.Stream cursor advances
	SiteNavStep     Site = "naveval.step" // navigational per-context-node steps
	SiteOutput      Site = "exec.output"  // root-level result emissions
	SiteAdmission   Site = "admission"    // daemon admission control, hit once per decision
)

// rule is one armed fault: fire on the k-th hit of the site.
type rule struct {
	k     int64
	err   error
	panik bool
}

// Injector fires scripted faults at named sites. Safe for concurrent
// use: fan-out workers and concurrent HTTP requests hit sites from
// several goroutines.
type Injector struct {
	mu    sync.Mutex
	hits  map[Site]int64
	rules map[Site]*rule
}

// New returns an injector with no rules armed.
func New() *Injector {
	return &Injector{hits: map[Site]int64{}, rules: map[Site]*rule{}}
}

// FailAt arms site to return err on its k-th hit (1-based). Each rule
// fires exactly once; later hits pass (the governor makes the first
// failure sticky, so one firing is enough to abort a query).
func (in *Injector) FailAt(site Site, k int64, err error) *Injector {
	if err == nil {
		err = fmt.Errorf("fault: injected failure at %s hit %d", site, k)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = &rule{k: k, err: err}
	return in
}

// PanicAt arms site to panic on its k-th hit (1-based) — the scripted
// operator bug the executor's panic recovery must convert to an error.
func (in *Injector) PanicAt(site Site, k int64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = &rule{k: k, panik: true}
	return in
}

// Hit records one hit of site and returns the armed fault's error when
// the rule fires. A nil injector always returns nil.
func (in *Injector) Hit(site Site) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.hits[site]++
	h := in.hits[site]
	r := in.rules[site]
	fire := r != nil && h == r.k
	in.mu.Unlock()
	if !fire {
		return nil
	}
	if r.panik {
		panic(fmt.Sprintf("fault: injected panic at %s hit %d", site, r.k))
	}
	return r.err
}

// Hits returns how many times site has been hit.
func (in *Injector) Hits(site Site) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}
