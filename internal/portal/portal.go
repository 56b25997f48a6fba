// Package portal reproduces the cloud software architecture of the
// paper's Figure 4: web-style tool portals that consume an ASCII text
// file, run an EDA tool with runaway-job termination, and return ASCII
// text output to a per-user history page. The same job machinery
// backs the auto-graders.
package portal

import (
	"errors"
	"fmt"
	"time"

	"vlsicad/internal/obs"
)

// ErrToolPanic marks a job whose Tool.Run panicked. The runner
// goroutine recovers the panic and converts it into a failed
// JobResult wrapping this sentinel, so one crashing submission never
// kills the portal process — the survival property the paper's cloud
// deployment needed against arbitrary student input.
var ErrToolPanic = errors.New("tool panicked")

// Tool is a text-in/text-out EDA tool. Implementations should poll
// cancel (closed on timeout) in long loops; the portal also abandons
// tools that ignore it.
type Tool interface {
	Name() string
	Describe() string
	Run(input string, cancel <-chan struct{}) (string, error)
}

// JobResult is one portal execution record.
type JobResult struct {
	Tool string
	// Input is the submitted text, kept with the record so history
	// pages can re-show what was run and harnesses can audit that no
	// submission is lost or double-completed.
	Input    string
	Output   string
	Err      string
	Duration time.Duration
	TimedOut bool
	// Abandoned marks a runaway tool that ignored cancellation past
	// the grace period: its goroutine was left running and the portal
	// returned without its output. Abandoned jobs are also counted in
	// the portal_jobs_abandoned metric and tracked live by the
	// portal_abandoned_inflight gauge.
	Abandoned bool
	// Attempts is how many attempts the job took (1 when it succeeded
	// or failed terminally first try; >1 when the pool retried
	// transient failures; 0 for a ticket that never ran).
	Attempts int
	When     time.Time
	// Replayed marks a ticket that was mid-flight when the pool
	// crashed and was re-executed after RecoverPool — the at-least-
	// once marker auditors use to tell a re-run from a first run.
	Replayed bool
}

// GracePeriod is how long an attempt waits after cancellation for a tool
// to acknowledge before abandoning its goroutine.
const GracePeriod = 50 * time.Millisecond

// runOutcome is one tool attempt's raw return.
type runOutcome struct {
	out string
	err error
}

// execTool runs a single attempt of the ticket's Tool.Run with the
// portal's three layers of isolation:
//
//  1. panic recovery — a crashing Run becomes a failed result
//     wrapping ErrToolPanic (portal_panics_recovered counter);
//  2. timeout + cooperative cancellation — after timeout the cancel
//     channel closes and the tool gets GracePeriod to acknowledge;
//  3. abandonment — a tool that ignores cancellation is left running
//     detached, counted (portal_jobs_abandoned), tracked live
//     (portal_abandoned_inflight gauge), and drained by a watcher
//     when it finally returns (portal_abandoned_returned), so an
//     eventually-finishing runaway never leaks its goroutine or its
//     buffered outcome.
//
// The ticket's quit channel is a second interrupt source beside the
// timeout timer: the pool closes it when the deadline expires or the
// ticket is cancelled mid-run. An interrupted attempt goes through the
// same cancel + grace + abandon machinery as a timeout, but is not
// marked TimedOut — its raw error is tk.quitReason() (ErrDeadline or
// ErrCancelled), so callers can tell the three interrupts apart.
//
// The returned error is the tool's raw error (nil on success), kept
// alongside the stringified JobResult.Err so callers can classify it
// (IsTransient, ErrToolPanic) without string matching.
func execTool(tk *Ticket, timeout time.Duration, clock obs.Clock, ob *obs.Observer) (JobResult, error) {
	cancel := make(chan struct{})
	done := make(chan runOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ob.Counter("portal_panics_recovered").Inc()
				done <- runOutcome{err: fmt.Errorf("%w: %v", ErrToolPanic, r)}
			}
		}()
		out, err := tk.t.Run(tk.input, cancel)
		done <- runOutcome{out, err}
	}()
	res := JobResult{Tool: tk.tool}
	var rawErr error
	interrupted := false
	select {
	case o := <-done:
		res.Output = o.out
		rawErr = o.err
	case <-tk.quit:
		interrupted = true
	case <-clock.After(timeout):
		res.TimedOut = true
	}
	if interrupted || res.TimedOut {
		close(cancel)
		// Give the tool a short grace period to acknowledge.
		select {
		case o := <-done:
			res.Output = o.out
			rawErr = o.err
		case <-clock.After(GracePeriod):
			// The tool ignored cancellation: its goroutine keeps
			// running detached. Make the runaway visible instead of
			// silently dropping it, and drain its outcome when it
			// finally returns so nothing leaks.
			res.Abandoned = true
			ob.Counter("portal_jobs_abandoned").Inc()
			ob.Gauge("portal_abandoned_inflight").Add(1)
			ob.Emit("portal.abandoned", map[string]string{"tool": tk.tool, "user": tk.user})
			go func() {
				<-done
				ob.Gauge("portal_abandoned_inflight").Add(-1)
				ob.Counter("portal_abandoned_returned").Inc()
			}()
		}
		// The interrupt reason dominates whatever the grace period
		// produced: a past-deadline or cancelled job is terminated even
		// if output arrived a hair late, so outcomes are deterministic
		// on a virtual clock.
		if interrupted {
			rawErr = tk.quitReason()
		} else if rawErr == nil {
			rawErr = errors.New("terminated: exceeded portal time limit")
		}
	}
	if rawErr != nil {
		res.Err = rawErr.Error()
	}
	return res, rawErr
}

// reverseHistory copies the newest min(n, len(h)) entries of h in
// newest-first order.
func reverseHistory(h []JobResult, n int) []JobResult {
	if n > len(h) {
		n = len(h)
	}
	if n < 0 {
		n = 0
	}
	out := make([]JobResult, n)
	for i := 0; i < n; i++ {
		out[i] = h[len(h)-1-i]
	}
	return out
}
