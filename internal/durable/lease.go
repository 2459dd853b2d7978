package durable

// Lease is the primary-liveness lease of the hot-standby pair, on the
// deployment's virtual clock (int64 virtual nanoseconds, matching
// packet.Packet.Time). The primary renews it on every successful
// collect-and-reset; the standby's health probe declares the primary dead
// only once the lease expires, so a takeover never races a live primary —
// at the cost of postponing promotion by at most one TTL.
type Lease struct {
	ttl     int64
	expires int64
	held    bool

	// A gray-slow primary's renewal is issued but not yet visible to the
	// standby: it sits in the pending slot until its arrival time passes,
	// then settles into expires on the next observation. One slot is
	// enough — a newer renewal supersedes an older in-flight one, and the
	// merge is conservative (the standby may see the primary as more dead
	// than it is; fencing makes the resulting spurious takeover safe).
	pendAt      int64 // virtual time the delayed renewal becomes visible
	pendExpires int64
	pending     bool
}

// NewLease builds a lease with the given time-to-live in virtual ns.
func NewLease(ttl int64) *Lease { return &Lease{ttl: ttl} }

// Renew extends the lease to now+TTL.
func (l *Lease) Renew(now int64) {
	l.expires = now + l.ttl
	l.held = true
	l.pending = false // an instant renewal supersedes any in-flight one
}

// RenewDelayed issues a renewal that only becomes visible to observers at
// now+delay — the gray-failure model: the primary is alive and renewing,
// but the renewals crawl. Until the renewal lands, Expired/Remaining
// answer from the previous visible state.
func (l *Lease) RenewDelayed(now, delay int64) {
	if delay <= 0 {
		l.Renew(now)
		return
	}
	l.pendAt = now + delay
	l.pendExpires = now + l.ttl
	l.pending = true
	l.held = true
}

// settle folds any delayed renewal that has arrived by now into the
// visible state.
func (l *Lease) settle(now int64) {
	if l.pending && now >= l.pendAt {
		if l.pendExpires > l.expires {
			l.expires = l.pendExpires
		}
		l.pending = false
	}
}

// Release drops the lease immediately (clean shutdown hands over without
// waiting out the TTL).
func (l *Lease) Release() {
	l.held = false
	l.pending = false
}

// Expired reports whether a held lease has lapsed. An unheld lease is
// expired by definition: there is no primary to wait for.
func (l *Lease) Expired(now int64) bool {
	l.settle(now)
	return !l.held || now >= l.expires
}

// Remaining returns the virtual time left before the standby may promote
// (0 when the lease is already expired).
func (l *Lease) Remaining(now int64) int64 {
	if l.Expired(now) {
		return 0
	}
	return l.expires - now
}
