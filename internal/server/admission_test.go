package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"blossomtree/internal/fault"
	"blossomtree/internal/gov"
	"blossomtree/internal/obs"
)

// TestAdmissionNil: a nil controller admits everything (the unguarded
// daemon configuration).
func TestAdmissionNil(t *testing.T) {
	var a *Admission
	release, err := a.Admit(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if a.Queued() != 0 || a.Inflight() != 0 {
		t.Error("nil admission has state")
	}
}

// TestAdmissionTokenBucket: each tenant gets TenantBurst immediate
// admits, then sheds until the bucket refills at TenantQPS; other
// tenants are unaffected.
func TestAdmissionTokenBucket(t *testing.T) {
	a := NewAdmission(AdmissionConfig{TenantQPS: 10, TenantBurst: 2})
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		release, err := a.Admit(context.Background(), "alice")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	before := obs.Default.Snapshot()
	_, err := a.Admit(context.Background(), "alice")
	var sh *ShedError
	if !errors.As(err, &sh) {
		t.Fatalf("over-quota admit: err = %v, want *ShedError", err)
	}
	if !errors.Is(err, gov.ErrShed) || gov.Verdict(err) != "shed" {
		t.Errorf("shed error does not unwrap to ErrShed: %v", err)
	}
	if sh.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s (wire clamp)", sh.RetryAfter)
	}
	if d := obs.Default.Delta(before); d[obs.MetricQueriesShed] != 1 {
		t.Errorf("queries_shed_total delta = %d, want 1", d[obs.MetricQueriesShed])
	}

	// A different tenant still has its own full bucket.
	if _, err := a.Admit(context.Background(), "bob"); err != nil {
		t.Errorf("fresh tenant shed alongside the hot one: %v", err)
	}

	// 100ms at 10 qps refills one token for alice.
	clock = clock.Add(100 * time.Millisecond)
	if release, err := a.Admit(context.Background(), "alice"); err != nil {
		t.Errorf("post-refill admit: %v", err)
	} else {
		release()
	}
}

// TestAdmissionInflightAndQueue: MaxInflight gates concurrency, the
// queue hands freed slots to waiters, and a full queue sheds.
func TestAdmissionInflightAndQueue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 1, MaxWait: 5 * time.Second})
	r1, err := a.Admit(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if a.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", a.Inflight())
	}

	granted := make(chan func(), 1)
	go func() {
		r2, err := a.Admit(context.Background(), "t")
		if err != nil {
			t.Error(err)
			granted <- func() {}
			return
		}
		granted <- r2
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })

	// Queue is full now: the next request sheds immediately.
	if _, err := a.Admit(context.Background(), "t"); err == nil || !errors.Is(err, gov.ErrShed) {
		t.Fatalf("full queue: err = %v, want shed", err)
	}

	r1() // frees the slot, which must grant the queued waiter
	r2 := <-granted
	if a.Queued() != 0 || a.Inflight() != 1 {
		t.Errorf("after handoff: queued=%d inflight=%d, want 0/1", a.Queued(), a.Inflight())
	}
	r2()
	r2() // double release must be a no-op
	if a.Inflight() != 0 {
		t.Errorf("inflight = %d after release, want 0", a.Inflight())
	}
}

// TestAdmissionWeightedFairOrder: when a slot frees, the waiter with the
// smallest virtual finish tag wins — a weight-2 tenant beats a weight-1
// tenant that queued first.
func TestAdmissionWeightedFairOrder(t *testing.T) {
	a := NewAdmission(AdmissionConfig{
		MaxInflight: 1,
		MaxQueue:    4,
		MaxWait:     5 * time.Second,
		Weights:     map[string]float64{"heavy": 2, "light": 1},
	})
	r1, err := a.Admit(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	enqueue := func(tenant string) {
		go func() {
			release, err := a.Admit(context.Background(), tenant)
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			order <- tenant
			release()
		}()
	}
	// light queues first (finish tag 1/1=1), heavy second (1/2=0.5);
	// weighted fairness grants heavy first anyway.
	enqueue("light")
	waitFor(t, func() bool { return a.Queued() == 1 })
	enqueue("heavy")
	waitFor(t, func() bool { return a.Queued() == 2 })

	r1()
	if first := <-order; first != "heavy" {
		t.Errorf("first grant = %q, want the weight-2 tenant", first)
	}
	if second := <-order; second != "light" {
		t.Errorf("second grant = %q, want light", second)
	}
}

// TestAdmissionQueueTimeout: a waiter sheds after MaxWait with the wait
// as its retry hint.
func TestAdmissionQueueTimeout(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 2, MaxWait: 20 * time.Millisecond})
	release, err := a.Admit(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	_, err = a.Admit(context.Background(), "t")
	var sh *ShedError
	if !errors.As(err, &sh) {
		t.Fatalf("queued past MaxWait: err = %v, want *ShedError", err)
	}
	if a.Queued() != 0 {
		t.Errorf("timed-out waiter still queued: %d", a.Queued())
	}
}

// TestAdmissionCanceledWhileQueued: a context canceled in the queue is
// a client abort (verdict "canceled"), not a shed — the server must
// answer 499, not 429.
func TestAdmissionCanceledWhileQueued(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 2, MaxWait: 5 * time.Second})
	release, err := a.Admit(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Admit(ctx, "t")
		errc <- err
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })
	cancel()
	err = <-errc
	if !errors.Is(err, gov.ErrCanceled) || errors.Is(err, gov.ErrShed) {
		t.Fatalf("canceled waiter: err = %v, want ErrCanceled (not shed)", err)
	}
	if gov.Verdict(err) != "canceled" {
		t.Errorf("verdict = %q, want canceled", gov.Verdict(err))
	}
	if a.Queued() != 0 {
		t.Errorf("canceled waiter still queued: %d", a.Queued())
	}
}

// TestAdmissionInjectedFault: the admission fault site sheds the
// k-th admission decision deterministically.
func TestAdmissionInjectedFault(t *testing.T) {
	inj := fault.New().FailAt(fault.SiteAdmission, 2, nil)
	a := NewAdmission(AdmissionConfig{Fault: inj})
	if _, err := a.Admit(context.Background(), "t"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if _, err := a.Admit(context.Background(), "t"); !errors.Is(err, gov.ErrShed) {
		t.Fatalf("second admit: err = %v, want injected shed", err)
	}
	if _, err := a.Admit(context.Background(), "t"); err != nil {
		t.Fatalf("third admit: %v (fault fires once)", err)
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}
