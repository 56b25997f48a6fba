package obs

import (
	"sort"
	"sync"
	"time"
)

// Clock is the one time source the portal engine takes: the current
// time and a one-shot timer. SystemClock is the wall clock; FakeClock
// is a virtual one whose timers fire only when tests move time.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// SystemClock is the wall clock: time.Now and time.After.
type SystemClock struct{}

// Now returns the wall time.
func (SystemClock) Now() time.Time { return time.Now() }

// After arms a real timer.
func (SystemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a deterministic virtual clock for tests: every Now()
// call advances it by a fixed step, so durations and timestamps depend
// only on the call sequence. Its timers carry absolute deadlines and
// fire when virtual time reaches them — on Advance or on a Now step —
// never by wall time, so a test moves past a deadline without first
// waiting for anyone to arm a timer.
type FakeClock struct {
	mu     sync.Mutex
	t      time.Time
	step   time.Duration
	timers []fakeTimer // pending, sorted by deadline; ties in arming order
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock starts at start, advancing by step per Now() call.
func NewFakeClock(start time.Time, step time.Duration) *FakeClock {
	return &FakeClock{t: start, step: step}
}

// Now returns the current fake time and advances the clock by its
// step, firing every timer the step reaches.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.setLocked(c.t.Add(c.step))
	return now
}

// Advance moves the clock forward by d without a tick, firing every
// timer whose deadline it reaches, in deadline order.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setLocked(c.t.Add(d))
}

// After arms a timer for d of virtual time from now. A deadline that
// is already due (d <= 0) fires at once.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.t.Add(d)
	if !at.After(c.t) {
		ch <- at
		return ch
	}
	i := sort.Search(len(c.timers), func(i int) bool { return c.timers[i].at.After(at) })
	c.timers = append(c.timers, fakeTimer{})
	copy(c.timers[i+1:], c.timers[i:])
	c.timers[i] = fakeTimer{at: at, ch: ch}
	return ch
}

// Pending reports how many armed timers have not fired yet.
func (c *FakeClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// setLocked moves time to t and fires the due prefix of the timer
// list; each timer receives its own deadline. Callers hold c.mu.
func (c *FakeClock) setLocked(t time.Time) {
	c.t = t
	n := 0
	for n < len(c.timers) && !c.timers[n].at.After(t) {
		c.timers[n].ch <- c.timers[n].at
		n++
	}
	if n > 0 {
		c.timers = append(c.timers[:0], c.timers[n:]...)
	}
}
