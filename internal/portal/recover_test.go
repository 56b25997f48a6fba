package portal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// gateTool blocks every run until release closes, signalling started
// on each entry — the way tests pin a ticket mid-flight.
func gateTool(name string, started chan<- string, release <-chan struct{}) Tool {
	return toolFunc{name: name, desc: "blocks until released",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			select {
			case started <- input:
			default:
			}
			select {
			case <-release:
				return input, nil
			case <-cancel:
				return "", errors.New("gate cancelled")
			}
		}}
}

// crashQueuedPool builds a journaled pool with one worker wedged on a
// gate tool and n-1 more tickets queued behind it, then "crashes" it:
// the returned bytes are the journal as of the crash instant. The pool
// is cleaned up via t.Cleanup.
func crashQueuedPool(t *testing.T, cfg PoolConfig, n int, deadline time.Duration) []byte {
	t.Helper()
	started := make(chan string, 1)
	release := make(chan struct{})
	ms := &memSyncer{}
	cfg.Journal = NewJournal(ms, JournalOpts{})
	cfg.Workers = 1
	if cfg.Observer == nil {
		cfg.Observer = obs.NewObserver(nil)
	}
	p := NewPool(cfg)
	if err := p.Register(gateTool("work", started, release)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := p.SubmitAsyncOpts("u", "work", fmt.Sprintf("job%d", i),
			TicketOpts{Deadline: deadline}); err != nil {
			t.Fatal(err)
		}
	}
	<-started // job0 is mid-flight; its start record is durable
	data := ms.Bytes()
	t.Cleanup(func() {
		close(release)
		p.Close()
	})
	return data
}

// TestRecoverRequeuesInOrderAndMarksReplayed is the core replay
// contract: queued tickets re-enter in original admission order, the
// mid-flight one re-runs at-least-once and is the only history entry
// marked Replayed, and the ledger balances with Replayed == 1.
func TestRecoverRequeuesInOrderAndMarksReplayed(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk}, 4, 0)

	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(data), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerun != 1 || rep.Requeued != 3 {
		t.Fatalf("rerun=%d requeued=%d, want 1/3", rep.Rerun, rep.Requeued)
	}
	p2.Close() // graceful drain executes every restored ticket

	h := p2.History("u") // newest first
	if len(h) != 4 {
		t.Fatalf("history = %d entries, want 4", len(h))
	}
	for i, res := range h {
		want := fmt.Sprintf("job%d", 3-i)
		if res.Input != want {
			t.Fatalf("history[%d] = %q, want %q: admission order not preserved", i, res.Input, want)
		}
		if got := res.Replayed; got != (res.Input == "job0") {
			t.Fatalf("history[%d] (%s) Replayed = %v", i, res.Input, got)
		}
	}
	led := p2.Ledger()
	if !led.Balanced() || led.Admitted != 4 || led.Replayed != 1 || led.Completed != 3 {
		t.Fatalf("ledger = %+v", led)
	}
}

// echoTool2 is echoTool under an arbitrary name, for recovering pools
// whose journal names a different tool.
func echoTool2(name string) Tool {
	return toolFunc{name: name, desc: "returns its input",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			return input, nil
		}}
}

// armLog is the pool's FakeClock with a record of every duration
// armed through After.
type armLog struct {
	*obs.FakeClock
	mu    sync.Mutex
	armed []time.Duration
}

func (c *armLog) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.armed = append(c.armed, d)
	c.mu.Unlock()
	return c.FakeClock.After(d)
}

func TestRecoverDeadlineRearmedAgainstClock(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk}, 2, 10*time.Second)

	// One second passes while the portal restarts: watchdogs must be
	// re-armed for the 9s remaining, not the original 10s.
	clk.Advance(time.Second)
	started := make(chan string, 1)
	release := make(chan struct{})
	arms := &armLog{FakeClock: clk}
	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: arms,
		Timeout: time.Hour, Observer: obs.NewObserver(nil)},
		bytes.NewReader(data), gateTool("work", started, release))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	defer close(release) // before Close, so a failed run cannot wedge the drain
	if rep.Expired != 0 || rep.Rerun+rep.Requeued != 2 {
		t.Fatalf("report = %+v, want both tickets live", rep)
	}
	// RecoverPool arms both watchdogs before it returns; the worker
	// may also have armed the re-run's one-hour tool timeout.
	arms.mu.Lock()
	rearms := 0
	for _, d := range arms.armed {
		if d == 9*time.Second {
			rearms++
		}
	}
	armed := append([]time.Duration(nil), arms.armed...)
	arms.mu.Unlock()
	if rearms != 2 {
		t.Fatalf("re-armed %d watchdogs at 9s (all arms: %v), want 2", rearms, armed)
	}
	// The re-run ticket is mid-flight, so only its re-armed watchdog
	// can end it. Nothing expires a nanosecond before the original
	// deadlines; both expire at them.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("recovered ticket never started")
	}
	clk.Advance(9*time.Second - time.Nanosecond)
	if led := p2.Ledger(); led.Expired != 0 {
		t.Fatalf("ledger = %+v, want no expiry before the original deadline", led)
	}
	clk.Advance(time.Nanosecond)
	for deadline := time.Now().Add(10 * time.Second); p2.Ledger().Expired != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("ledger = %+v, want both tickets expired at the original deadline", p2.Ledger())
		}
		time.Sleep(time.Millisecond)
	}
	if led := p2.Ledger(); !led.Balanced() || led.Completed+led.Replayed != 0 {
		t.Fatalf("ledger = %+v", led)
	}
}

func TestRecoverExpiresPastDeadlineTickets(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk}, 2, 10*time.Second)

	clk.Advance(time.Minute) // the outage outlived both deadlines
	ob := obs.NewObserver(nil)
	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk, Observer: ob},
		bytes.NewReader(data), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.Expired != 2 || rep.Rerun != 0 || rep.Requeued != 0 {
		t.Fatalf("report = %+v, want both expired at recovery", rep)
	}
	led := p2.Ledger()
	if !led.Balanced() || led.Expired != 2 || led.Admitted != 2 {
		t.Fatalf("ledger = %+v", led)
	}
	if len(p2.History("u")) != 0 {
		t.Fatal("expired-while-queued tickets must not fabricate history")
	}
}

func TestRecoverOrphanedToolCancelled(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk}, 3, 0)

	// Recover without registering "work": every restored ticket is
	// orphaned and cancelled, and the ledger still balances.
	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.Orphaned != 3 {
		t.Fatalf("orphaned = %d, want 3", rep.Orphaned)
	}
	led := p2.Ledger()
	if !led.Balanced() || led.Cancelled != 3 {
		t.Fatalf("ledger = %+v", led)
	}
}

func TestRecoverQuotaBucketsPreserved(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	cfg := PoolConfig{Workers: 1, Clock: clk, QuotaRate: 0.001, QuotaBurst: 2}
	p, ms := journaledPool(cfg, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Submit("hot", "echo", "x"); err != nil {
			t.Fatal(err)
		}
	}
	// Burst spent: the shed touches the bucket and must be journaled.
	if _, err := p.Submit("hot", "echo", "x"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	want := p.quota.snapshot()

	p2, _, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk,
		QuotaRate: 0.001, QuotaBurst: 2, Observer: obs.NewObserver(nil)},
		bytes.NewReader(ms.Bytes()), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.quota.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("quota buckets diverged:\n got %+v\nwant %+v", got, want)
	}
	// The hot user stays shed across the restart; a cold user is not.
	if _, err := p2.Submit("hot", "echo", "x"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("hot user err = %v, want ErrQuotaExceeded after recovery", err)
	}
	if _, err := p2.Submit("cold", "echo", "x"); err != nil {
		t.Fatal(err)
	}
	p.Close()
}

// TestRecoverHistoryLimitExact pins byte-identical history retention:
// the shard's raw slice — including the 2×limit block-trim boundary —
// replays exactly, under a ticking fake clock so no two results look
// alike.
func TestRecoverHistoryLimitExact(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 1, Clock: clk, HistoryLimit: 3}, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p2, _, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk, HistoryLimit: 3,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(ms.Bytes()), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !reflect.DeepEqual(p2.History("u"), p.History("u")) {
		t.Fatalf("history diverged:\n got %+v\nwant %+v", p2.History("u"), p.History("u"))
	}
	// The raw retained slice (not just the page) matches too, so the
	// next trim fires at the same append on both pools.
	if !reflect.DeepEqual(p2.shard("u").history["u"], p.shard("u").history["u"]) {
		t.Fatal("raw retained history (trim boundary) diverged")
	}
	p.Close()
}

func TestRecoverEmptyJournal(t *testing.T) {
	p, rep, err := RecoverPool(PoolConfig{Workers: 1,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(nil), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || rep.Bytes != 0 || rep.SnapshotUsed {
		t.Fatalf("report = %+v, want zeros", rep)
	}
	if _, err := p.Submit("u", "echo", "hello"); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if led := p.Ledger(); !led.Balanced() || led.Admitted != 1 {
		t.Fatalf("ledger = %+v", led)
	}
}

// TestRecoverChainDurability proves recovery-of-a-recovery: the first
// recovered pool writes its restored state into a fresh journal, and a
// second crash recovers through that journal alone.
func TestRecoverChainDurability(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk}, 3, 0)

	ms2 := &memSyncer{}
	p2, _, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk,
		Journal: NewJournal(ms2, JournalOpts{}), Observer: obs.NewObserver(nil)},
		bytes.NewReader(data), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()

	p3, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(ms2.Bytes()), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if !rep.SnapshotUsed {
		t.Fatal("chained recovery should start from the chain snapshot")
	}
	if !reflect.DeepEqual(p3.History("u"), p2.History("u")) {
		t.Fatalf("chained history diverged:\n got %+v\nwant %+v", p3.History("u"), p2.History("u"))
	}
	if got, want := p3.Ledger(), p2.Ledger(); got != want {
		t.Fatalf("chained ledger %+v != %+v", got, want)
	}
}
