package durable

import "testing"

// Expiry is inclusive: a lease renewed at t is expired at exactly t+TTL.
// The standby promotes at that instant, so a primary that renews only at
// the boundary has already lost — there is never a moment where both
// sides can believe they hold the lease.
func TestLeaseRenewExactlyAtTTL(t *testing.T) {
	l := NewLease(100)
	l.Renew(0)
	if l.Expired(99) {
		t.Fatal("expired before TTL")
	}
	if !l.Expired(100) {
		t.Fatal("renew+TTL must read as expired (inclusive boundary)")
	}
	// Renewing at the expiry instant starts a fresh term from that
	// instant, not from the stale one.
	l.Renew(100)
	if l.Expired(199) {
		t.Fatal("boundary renewal did not extend the term")
	}
	if !l.Expired(200) {
		t.Fatal("extended term must still expire inclusively")
	}
}

// Promotion race with a revived primary: once the standby observes expiry
// and the old holder releases, a stale renewal from the revived primary
// is a NEW acquisition — it cannot retroactively un-expire the term the
// standby promoted on.
func TestLeasePromotionRaceWithRevivedPrimary(t *testing.T) {
	l := NewLease(100)
	l.Renew(0)

	// Standby's view at t=150: expired. It promotes and takes over.
	if !l.Expired(150) {
		t.Fatal("standby should observe expiry")
	}
	l.Release()

	// A released lease reads expired at every instant, even ones inside
	// the old term — the primary's revival cannot resurrect it.
	for _, now := range []int64{0, 50, 99, 150} {
		if !l.Expired(now) {
			t.Fatalf("released lease read as held at %d", now)
		}
	}
	if got := l.Remaining(50); got != 0 {
		t.Fatalf("Remaining after release = %d, want 0", got)
	}

	// The revived primary renewing afterward is a fresh acquisition with
	// a full term — the normal re-admission path, not a conflict.
	l.Renew(200)
	if l.Expired(299) {
		t.Fatal("fresh acquisition not honored")
	}
	if got := l.Remaining(250); got != 50 {
		t.Fatalf("Remaining = %d, want 50", got)
	}
}

func TestLeaseRemainingNeverNegative(t *testing.T) {
	l := NewLease(100)
	l.Renew(0)
	if got := l.Remaining(500); got != 0 {
		t.Fatalf("Remaining long after expiry = %d, want 0", got)
	}
	if l.ttl != 100 {
		t.Fatalf("TTL = %d, want 100", l.ttl)
	}
}

// Renewing after the lease already lapsed is legal and starts a fresh
// term from the renewal instant — but the expiry the standby observed in
// between stands: once promoted, the fencing term (not the lease) decides
// who may write. The lease itself just restarts cleanly.
func TestLeaseRenewAfterExpiry(t *testing.T) {
	l := NewLease(100)
	l.Renew(0)
	if !l.Expired(250) {
		t.Fatal("lease should have lapsed at 250")
	}
	l.Renew(250)
	if l.Expired(349) {
		t.Fatal("late renewal did not start a fresh term")
	}
	if !l.Expired(350) {
		t.Fatal("fresh term must expire inclusively at renew+TTL")
	}
	if got := l.Remaining(300); got != 50 {
		t.Fatalf("Remaining mid-fresh-term = %d, want 50", got)
	}
}

// Remaining at the exact expiry instant is 0, not TTL and not negative —
// the standby's promotion wait must never round a just-expired lease back
// up to a full term.
func TestLeaseRemainingAtExactExpiry(t *testing.T) {
	l := NewLease(100)
	l.Renew(0)
	if got := l.Remaining(99); got != 1 {
		t.Fatalf("Remaining one tick before expiry = %d, want 1", got)
	}
	if got := l.Remaining(100); got != 0 {
		t.Fatalf("Remaining at exact expiry = %d, want 0", got)
	}
	if got := l.Remaining(101); got != 0 {
		t.Fatalf("Remaining past expiry = %d, want 0", got)
	}
}

// An observer whose clock is skewed against the renewer's: a clock
// running ahead observes expiry early, one running behind observes it
// late. Neither skew direction can make a renewal retroactively visible.
func TestLeaseClockDrift(t *testing.T) {
	l := NewLease(100)
	l.Renew(0)

	// Standby running 30 ahead: at primary-time 80 it reads 110 — expired
	// from its point of view, while the primary still holds 20 of term.
	if !l.Expired(80 + 30) {
		t.Fatal("fast standby clock should observe expiry early")
	}

	// Standby running 30 behind: at primary-time 120 it reads 90 — the
	// lapsed lease still looks held, postponing promotion by the skew.
	l.Renew(0)
	if l.Expired(120 - 30) {
		t.Fatal("slow standby clock should observe expiry late")
	}
	if !l.Expired(130 - 30) {
		t.Fatal("slow clock only postpones expiry, never cancels it")
	}
}
