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
}

// NewLease builds a lease with the given time-to-live in virtual ns.
func NewLease(ttl int64) *Lease { return &Lease{ttl: ttl} }

// Renew extends the lease to now+TTL.
func (l *Lease) Renew(now int64) {
	l.expires = now + l.ttl
	l.held = true
}

// Release drops the lease immediately (clean shutdown hands over without
// waiting out the TTL).
func (l *Lease) Release() { l.held = false }

// Expired reports whether a held lease has lapsed. An unheld lease is
// expired by definition: there is no primary to wait for.
func (l *Lease) Expired(now int64) bool {
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
