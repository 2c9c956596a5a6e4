package server

import (
	"context"
	"fmt"
	"time"

	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
)

// ShedError is the typed refusal of admission control. It unwraps to
// gov.ErrShed, so gov.Verdict classifies it as "shed" and the HTTP
// layer maps it to 429 with the Retry-After hint.
type ShedError struct {
	// RetryAfter is the server's hint for when the client should retry:
	// the time until the tenant's next token for quota sheds, the
	// configured queue wait for queue sheds.
	RetryAfter time.Duration
	// Reason names the trigger ("tenant over quota", "queue full", …).
	Reason string
}

// Error formats the refusal.
func (e *ShedError) Error() string {
	return fmt.Sprintf("server: query shed: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *ShedError) Unwrap() error { return gov.ErrShed }

// AdmissionConfig configures the admission controller.
type AdmissionConfig struct {
	// MaxInflight caps concurrently admitted queries; 0 disables the
	// concurrency gate (only the per-tenant buckets apply).
	MaxInflight int
	// MaxQueue caps queries waiting for an inflight slot; a full queue
	// sheds immediately. Defaults to 2×MaxInflight when zero.
	MaxQueue int
	// MaxWait bounds how long a query may queue before it sheds.
	// Defaults to 1s when zero.
	MaxWait time.Duration
	// TenantQPS is each tenant's token refill rate; 0 disables the
	// per-tenant buckets.
	TenantQPS float64
	// TenantBurst is each tenant's bucket capacity. Defaults to
	// max(1, ceil(TenantQPS)) when zero.
	TenantBurst int
	// Weights maps tenant names to weighted-fair-queue weights
	// (default 1): a tenant with weight 2 drains its queued queries
	// twice as often under contention.
	Weights map[string]float64
	// Fault injects deterministic sheds at fault.SiteAdmission —
	// one hit per admission decision.
	Fault *fault.Injector
}

// Admission is a per-tenant token-bucket + weighted-fair queue in front
// of query evaluation. Admit either admits the query (returning a
// release function the caller must invoke when evaluation finishes),
// sheds it with a *ShedError, or — for a context canceled while queued
// — returns a canceled abort.
type Admission struct {
	cfg AdmissionConfig

	// All state below is guarded by a single mutex: admission decisions
	// are short critical sections at the request edge, far off the
	// evaluation hot path.
	mu       chan struct{} // 1-buffered semaphore used as the lock (keeps waiters simple)
	inflight int
	vtime    float64 // WFQ virtual time: max finish tag granted so far
	queue    []*waiter
	tenants  map[string]*tenantState
	now      func() time.Time // test hook
}

// tenantState is one tenant's bucket and fair-queue bookkeeping.
type tenantState struct {
	tokens     float64
	lastRefill time.Time
	lastFinish float64
	weight     float64
}

// waiter is one queued query.
type waiter struct {
	tenant string
	finish float64 // WFQ virtual finish tag; min tag dispatches first
	ch     chan struct{}
	done   bool // granted or abandoned; guarded by the Admission lock
}

// NewAdmission returns an admission controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.MaxInflight
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = time.Second
	}
	if cfg.TenantBurst == 0 && cfg.TenantQPS > 0 {
		cfg.TenantBurst = int(cfg.TenantQPS)
		if float64(cfg.TenantBurst) < cfg.TenantQPS {
			cfg.TenantBurst++
		}
		if cfg.TenantBurst < 1 {
			cfg.TenantBurst = 1
		}
	}
	a := &Admission{
		cfg:     cfg,
		mu:      make(chan struct{}, 1),
		tenants: map[string]*tenantState{},
		now:     time.Now,
	}
	return a
}

func (a *Admission) lock()   { a.mu <- struct{}{} }
func (a *Admission) unlock() { <-a.mu }

// tenant returns (creating if needed) the tenant's state. Caller holds
// the lock.
func (a *Admission) tenant(name string) *tenantState {
	t, ok := a.tenants[name]
	if !ok {
		w := a.cfg.Weights[name]
		if w <= 0 {
			w = 1
		}
		t = &tenantState{
			tokens:     float64(a.cfg.TenantBurst),
			lastRefill: a.now(),
			weight:     w,
		}
		a.tenants[name] = t
	}
	return t
}

// shed records one shed in the default registry — the unlabeled
// aggregate plus the per-tenant labeled series (bounded top-K + "other"
// cardinality guard lives in obs.LabeledCounter) — and returns the
// typed refusal.
func shed(tenant string, retryAfter time.Duration, reason string) error {
	obs.Default.Add(obs.MetricQueriesShed, 1)
	obs.Default.AddLabeled(obs.MetricQueriesShed, "tenant", tenant, 1)
	if retryAfter < time.Second {
		retryAfter = time.Second // Retry-After is whole seconds on the wire
	}
	return &ShedError{RetryAfter: retryAfter, Reason: reason}
}

// Admit runs one admission decision for tenant. On admission it returns
// a release function the caller must invoke exactly once when the query
// finishes; on overload it returns a *ShedError. A nil *Admission
// admits everything.
func (a *Admission) Admit(ctx context.Context, tenant string) (func(), error) {
	if a == nil {
		return func() {}, nil
	}
	if err := a.cfg.Fault.Hit(fault.SiteAdmission); err != nil {
		return nil, shed(tenant, 0, fmt.Sprintf("injected: %v", err))
	}

	a.lock()
	// Per-tenant token bucket: refill by elapsed time, take one token or
	// shed with the time until the next token as the retry hint.
	if a.cfg.TenantQPS > 0 {
		t := a.tenant(tenant)
		now := a.now()
		t.tokens += now.Sub(t.lastRefill).Seconds() * a.cfg.TenantQPS
		if max := float64(a.cfg.TenantBurst); t.tokens > max {
			t.tokens = max
		}
		t.lastRefill = now
		if t.tokens < 1 {
			need := (1 - t.tokens) / a.cfg.TenantQPS
			a.unlock()
			return nil, shed(tenant, time.Duration(need*float64(time.Second)), fmt.Sprintf("tenant %q over quota (%.3g qps)", tenant, a.cfg.TenantQPS))
		}
		t.tokens--
	}
	if a.cfg.MaxInflight <= 0 {
		a.unlock()
		return a.releaseFunc(), nil
	}
	if a.inflight < a.cfg.MaxInflight {
		a.inflight++
		a.unlock()
		return a.releaseFunc(), nil
	}
	// Saturated: join the weighted-fair queue or shed when it is full.
	if len(a.queue) >= a.cfg.MaxQueue {
		a.unlock()
		return nil, shed(tenant, a.cfg.MaxWait, fmt.Sprintf("queue full (%d waiting, %d inflight)", a.cfg.MaxQueue, a.cfg.MaxInflight))
	}
	t := a.tenant(tenant)
	start := a.vtime
	if t.lastFinish > start {
		start = t.lastFinish
	}
	w := &waiter{tenant: tenant, finish: start + 1/t.weight, ch: make(chan struct{})}
	t.lastFinish = w.finish
	a.queue = append(a.queue, w)
	a.unlock()

	timer := time.NewTimer(a.cfg.MaxWait)
	defer timer.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ch:
		return a.releaseFunc(), nil
	case <-timer.C:
		if a.abandon(w) {
			return nil, shed(tenant, a.cfg.MaxWait, fmt.Sprintf("queued longer than %v", a.cfg.MaxWait))
		}
		// Granted concurrently with the timeout: the slot is ours.
		return a.releaseFunc(), nil
	case <-done:
		if a.abandon(w) {
			return nil, &gov.AbortError{Cause: gov.ErrCanceled, Reason: "canceled while queued for admission"}
		}
		return a.releaseFunc(), nil
	}
}

// abandon removes a waiter that timed out or was canceled. It reports
// false when the waiter was already granted — in that race the caller
// owns an inflight slot and must proceed (or release it).
func (a *Admission) abandon(w *waiter) bool {
	a.lock()
	defer a.unlock()
	if w.done {
		return false
	}
	w.done = true
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			break
		}
	}
	return true
}

// releaseFunc returns the once-only release of one inflight slot.
func (a *Admission) releaseFunc() func() {
	var once bool
	return func() {
		a.lock()
		defer a.unlock()
		if once {
			return
		}
		once = true
		if a.cfg.MaxInflight <= 0 {
			return
		}
		// Hand the slot to the queued waiter with the smallest virtual
		// finish tag (weighted-fair order); only drop inflight when no one
		// is waiting.
		best := -1
		for i, q := range a.queue {
			if q.done {
				continue
			}
			if best == -1 || q.finish < a.queue[best].finish {
				best = i
			}
		}
		if best == -1 {
			a.inflight--
			return
		}
		w := a.queue[best]
		a.queue = append(a.queue[:best], a.queue[best+1:]...)
		w.done = true
		if w.finish > a.vtime {
			a.vtime = w.finish
		}
		close(w.ch)
	}
}

// Queued returns the current queue length (for tests and /metrics
// debugging).
func (a *Admission) Queued() int {
	if a == nil {
		return 0
	}
	a.lock()
	defer a.unlock()
	return len(a.queue)
}

// Inflight returns the currently admitted query count.
func (a *Admission) Inflight() int {
	if a == nil {
		return 0
	}
	a.lock()
	defer a.unlock()
	return a.inflight
}
