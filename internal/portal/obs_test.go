package portal

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// waitPending polls until clk has n armed timers — the "is the attempt
// in its timeout (or grace) select yet?" probe for tests that move
// virtual time past a relative timer.
func waitPending(t *testing.T, clk *obs.FakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for clk.Pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers armed, want %d", clk.Pending(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitTicket bounds a test's Wait so a lost wake-up fails in seconds.
func waitTicket(t *testing.T, tk *Ticket) JobResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCooperativeTimeoutNoSleep drives the timeout + grace path on
// virtual time: the attempt's timeout fires when the test advances the
// clock, the tool acknowledges cancel, and no wall-clock waiting
// happens.
func TestCooperativeTimeoutNoSleep(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(100, 0).UTC(), 0)
	ob := obs.NewObserver(clk.Now)
	p := NewPool(PoolConfig{Workers: 1, Timeout: time.Hour, Clock: clk, Observer: ob})
	defer p.Close()
	err := p.Register(toolFunc{
		name: "coop",
		desc: "acknowledges cancellation",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			<-cancel
			return "stopped", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitAsync("u", "coop", "")
	if err != nil {
		t.Fatal(err)
	}
	waitPending(t, clk, 1)
	clk.Advance(time.Hour)
	res := waitTicket(t, tk)
	if !res.TimedOut {
		t.Error("job should be marked timed out")
	}
	if res.Abandoned {
		t.Error("cooperative tool must not be marked abandoned")
	}
	if res.Output != "stopped" {
		t.Errorf("output = %q", res.Output)
	}
	if res.Duration != time.Hour {
		t.Errorf("duration = %v, want the 1h of virtual time", res.Duration)
	}
	snap := ob.Snapshot().Metrics
	if snap.Counters["pool_jobs_timeout"] != 1 {
		t.Errorf("timeout counter = %d", snap.Counters["pool_jobs_timeout"])
	}
	if snap.Counters["portal_jobs_abandoned"] != 0 {
		t.Errorf("abandoned counter = %d", snap.Counters["portal_jobs_abandoned"])
	}
}

// TestAbandonedRunawayCounted: a tool that ignores cancellation past
// the grace period is recorded as Abandoned, counted, and tracked
// until its goroutine finally exits. Timeout and grace both expire on
// virtual time.
func TestAbandonedRunawayCounted(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(100, 0).UTC(), 0)
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 1, Timeout: time.Hour, Clock: clk, Observer: ob})
	defer p.Close()
	release := make(chan struct{})
	err := p.Register(toolFunc{
		name: "runaway",
		desc: "ignores cancellation",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			<-release // ignores cancel entirely
			return "finally", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitAsync("u", "runaway", "")
	if err != nil {
		t.Fatal(err)
	}
	waitPending(t, clk, 1)
	clk.Advance(time.Hour) // the timeout
	waitPending(t, clk, 1)
	clk.Advance(GracePeriod)
	res := waitTicket(t, tk)
	if !res.TimedOut || !res.Abandoned {
		t.Fatalf("TimedOut=%v Abandoned=%v, want both true", res.TimedOut, res.Abandoned)
	}
	if h := p.History("u"); len(h) != 1 || !h[0].Abandoned {
		t.Error("history must record the abandonment")
	}
	m := ob.Snapshot().Metrics
	if m.Counters["portal_jobs_abandoned"] != 1 {
		t.Errorf("abandoned counter = %d, want 1", m.Counters["portal_jobs_abandoned"])
	}
	if g := m.Gauges["portal_abandoned_inflight"]; g != 1 {
		t.Errorf("abandoned inflight gauge = %g, want 1", g)
	}
	var abandoned int
	for _, e := range ob.Snapshot().Events {
		if e.Kind == "portal.abandoned" {
			abandoned++
		}
	}
	if abandoned != 1 {
		t.Errorf("portal.abandoned events = %d, want 1", abandoned)
	}

	// Let the runaway finish; the watcher must drain the gauge.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m := ob.Snapshot().Metrics
		if m.Gauges["portal_abandoned_inflight"] == 0 &&
			m.Counters["portal_abandoned_returned"] == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("abandoned goroutine exit was never observed")
}

// TestPortalConcurrent hammers Submit/History/Tools from many
// goroutines sharing one observer; run with -race.
func TestPortalConcurrent(t *testing.T) {
	const workers = 12
	const iters = 50
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: workers, Timeout: time.Second, Observer: ob})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", w%3)
			for i := 0; i < iters; i++ {
				res, err := p.Submit(user, "echo", "ping")
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if res.Output != "ping" {
					t.Errorf("output = %q", res.Output)
					return
				}
				_ = p.History(user)
				_ = p.Tools()
				if i%10 == 0 {
					_ = ob.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	m := ob.Snapshot().Metrics
	if m.Counters["pool_jobs_total"] != workers*iters {
		t.Errorf("jobs total = %d, want %d", m.Counters["pool_jobs_total"], workers*iters)
	}
	if v, _ := m.CounterSeries("pool_tool_jobs_total", map[string]string{"tool": "echo"}); v != workers*iters {
		t.Errorf("per-tool counter = %d", v)
	}
	if m.Gauges["pool_jobs_inflight"] != 0 {
		t.Errorf("inflight gauge = %g, want 0", m.Gauges["pool_jobs_inflight"])
	}
	if h := m.Histograms["pool_job_seconds"]; h.Count != workers*iters {
		t.Errorf("histogram count = %d", h.Count)
	}
	var total int
	for _, u := range []string{"user0", "user1", "user2"} {
		total += len(p.History(u))
	}
	if total != workers*iters {
		t.Errorf("history total = %d, want %d", total, workers*iters)
	}
}
