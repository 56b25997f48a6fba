package obs

import (
	"testing"
	"time"
)

func TestFakeClockTimers(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(1000, 0).UTC()
	advance := func(d time.Duration) func(*FakeClock) {
		return func(c *FakeClock) { c.Advance(d) }
	}
	cases := []struct {
		name    string
		step    time.Duration   // per-Now step
		arm     []time.Duration // timers armed at t0, in this order
		move    func(*FakeClock)
		fired   []bool // per armed timer
		pending int
	}{
		{name: "due at arming fires at once",
			arm: []time.Duration{0, -time.Second, time.Second}, move: func(*FakeClock) {},
			fired: []bool{true, true, false}, pending: 1},
		{name: "advance fires only the due timers",
			arm: []time.Duration{30 * ms, 10 * ms, 20 * ms, 10 * ms}, move: advance(25 * ms),
			fired: []bool{false, true, true, true}, pending: 1},
		{name: "advance reaching a deadline exactly fires it",
			arm: []time.Duration{10 * ms}, move: advance(10 * ms),
			fired: []bool{true}, pending: 0},
		{name: "advance short of every deadline fires none",
			arm: []time.Duration{time.Second, time.Minute}, move: advance(999 * ms),
			fired: []bool{false, false}, pending: 2},
		{name: "now steps fire what they reach",
			step: 10 * ms, arm: []time.Duration{25 * ms, 45 * ms},
			move: func(c *FakeClock) {
				for i := 0; i < 3; i++ { // 3 steps: t0+30ms
					c.Now()
				}
			},
			fired: []bool{true, false}, pending: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewFakeClock(t0, tc.step)
			chans := make([]<-chan time.Time, len(tc.arm))
			for i, d := range tc.arm {
				chans[i] = c.After(d)
			}
			// Pending timers are kept in deadline order, ties in arming
			// order, so a move fires them earliest first.
			for i := 1; i < len(c.timers); i++ {
				if c.timers[i].at.Before(c.timers[i-1].at) {
					t.Fatalf("timers out of deadline order: %v before %v", c.timers[i-1].at, c.timers[i].at)
				}
			}
			tc.move(c)
			for i, ch := range chans {
				select {
				case got := <-ch:
					if !tc.fired[i] {
						t.Errorf("timer %d (%v) fired early", i, tc.arm[i])
					} else if want := t0.Add(tc.arm[i]); !got.Equal(want) {
						t.Errorf("timer %d fired with %v, want its deadline %v", i, got, want)
					}
				default:
					if tc.fired[i] {
						t.Errorf("timer %d (%v) did not fire", i, tc.arm[i])
					}
				}
			}
			if got := c.Pending(); got != tc.pending {
				t.Errorf("Pending() = %d, want %d", got, tc.pending)
			}
		})
	}
}
