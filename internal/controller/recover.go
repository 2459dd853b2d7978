package controller

import "time"

// RetryPolicy bounds the NACK/retransmit recovery loop of §8. The
// controller re-checks a sub-window's sequence gaps after each round,
// NACKing the remainder with exponentially growing waits, and gives up
// after MaxRetries rounds — an unreachable switch must not stall window
// assembly forever; the window finalizes marked Incomplete instead.
type RetryPolicy struct {
	// MaxRetries is the number of NACK rounds before giving up.
	// 0 disables recovery entirely (gap detection still runs, so windows
	// with losses finalize Incomplete immediately).
	MaxRetries int
	// Backoff is the wait after each NACK for the retransmissions to
	// arrive; it doubles every round.
	Backoff time.Duration
	// MaxBackoff caps the doubling.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy matches a loopback-scale RTT: 4 rounds starting at
// 2ms, capped at 16ms — under 50ms worst-case stall per sub-window.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, Backoff: 2 * time.Millisecond, MaxBackoff: 16 * time.Millisecond}
}

// Recovery is the outcome of one sub-window's recovery loop.
type Recovery struct {
	// Complete reports that no announced sequence is missing.
	Complete bool
	// Rounds is the number of NACKs issued.
	Rounds int
	// Waited is the total backoff time spent (virtual or real, per the
	// sleep function the caller supplied).
	Waited time.Duration
	// Missing holds the sequences still absent after exhaustion (nil
	// when Complete).
	Missing []uint32
}

// RecoverSubWindow drives the bounded NACK/retransmit protocol for one
// sub-window. The caller supplies the three environment hooks, which is
// what lets the same state machine run in the deployment (nack calls
// Engine.Retransmit directly, sleep advances virtual time) and beside a UDP
// collector (examples/udpcollector: nack re-queries the engine in-process
// and sends the OWRetransmit datagrams over the wire, sleep really sleeps):
//
//   - missing samples the gap state (Controller.MissingSeqs);
//   - nack requests retransmission of the given sequences;
//   - sleep waits for the retransmissions to arrive.
//
// It must run after the sub-window's enumeration has been delivered and
// before the switch resets the region (a reset destroys the state the
// retransmissions are queried from, §4.3).
func RecoverSubWindow(pol RetryPolicy, missing func() []uint32, nack func([]uint32) error, sleep func(time.Duration)) Recovery {
	m := missing()
	if len(m) == 0 {
		return Recovery{Complete: true}
	}
	out := Recovery{Missing: m}
	backoff := pol.Backoff
	if backoff <= 0 {
		backoff = DefaultRetryPolicy().Backoff
	}
	maxBackoff := pol.MaxBackoff
	if maxBackoff < backoff {
		maxBackoff = backoff
	}
	for out.Rounds < pol.MaxRetries {
		if err := nack(out.Missing); err != nil {
			return out
		}
		out.Rounds++
		sleep(backoff)
		out.Waited += backoff
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		out.Missing = missing()
		if len(out.Missing) == 0 {
			out.Complete = true
			return out
		}
	}
	return out
}
