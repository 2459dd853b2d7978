package controller

import (
	"errors"
	"testing"
	"time"
)

// recoveryEnv is a scripted switch: each NACK restores some of the
// missing sequences, and sleep advances virtual time.
type recoveryEnv struct {
	missing []uint32
	// restorePerRound is how many sequences each NACK round recovers.
	restorePerRound int
	nacks           [][]uint32
	virtual         time.Duration
}

func (e *recoveryEnv) Missing() []uint32 {
	return append([]uint32(nil), e.missing...)
}

func (e *recoveryEnv) Nack(seqs []uint32) error {
	e.nacks = append(e.nacks, append([]uint32(nil), seqs...))
	n := e.restorePerRound
	if n > len(e.missing) {
		n = len(e.missing)
	}
	e.missing = e.missing[n:]
	return nil
}

func (e *recoveryEnv) Sleep(d time.Duration) { e.virtual += d }

func TestRecoverNothingMissing(t *testing.T) {
	env := &recoveryEnv{}
	rec := RecoverSubWindow(DefaultRetryPolicy(), env.Missing, env.Nack, env.Sleep)
	if !rec.Complete || rec.Rounds != 0 || len(env.nacks) != 0 {
		t.Fatalf("gap-free recovery ran rounds: %+v", rec)
	}
}

func TestRecoverConvergesWithinBudget(t *testing.T) {
	env := &recoveryEnv{missing: []uint32{1, 4, 9, 16}, restorePerRound: 2}
	rec := RecoverSubWindow(DefaultRetryPolicy(), env.Missing, env.Nack, env.Sleep)
	if !rec.Complete {
		t.Fatalf("did not converge: %+v", rec)
	}
	if rec.Rounds != 2 || len(env.nacks) != 2 {
		t.Fatalf("rounds = %d, nacks = %d, want 2", rec.Rounds, len(env.nacks))
	}
	// The second NACK must only request what was still missing.
	if len(env.nacks[0]) != 4 || len(env.nacks[1]) != 2 {
		t.Fatalf("nack sizes %d/%d, want 4/2", len(env.nacks[0]), len(env.nacks[1]))
	}
	if rec.Waited != env.virtual {
		t.Fatalf("Waited=%v but slept %v", rec.Waited, env.virtual)
	}
}

func TestRecoverExhaustsAndReportsMissing(t *testing.T) {
	env := &recoveryEnv{missing: []uint32{2, 3}} // switch never answers
	pol := RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	rec := RecoverSubWindow(pol, env.Missing, env.Nack, env.Sleep)
	if rec.Complete {
		t.Fatal("reported complete with sequences missing")
	}
	if rec.Rounds != 3 || len(rec.Missing) != 2 {
		t.Fatalf("rounds=%d missing=%v", rec.Rounds, rec.Missing)
	}
	// Backoff doubles and caps: 1ms + 2ms + 2ms.
	if want := 5 * time.Millisecond; rec.Waited != want {
		t.Fatalf("Waited = %v, want %v", rec.Waited, want)
	}
}

func TestRecoverZeroRetriesGivesUpImmediately(t *testing.T) {
	env := &recoveryEnv{missing: []uint32{7}}
	rec := RecoverSubWindow(RetryPolicy{}, env.Missing, env.Nack, env.Sleep)
	if rec.Complete || rec.Rounds != 0 || len(env.nacks) != 0 {
		t.Fatalf("disabled retries still ran: %+v", rec)
	}
	if len(rec.Missing) != 1 || rec.Missing[0] != 7 {
		t.Fatalf("Missing = %v", rec.Missing)
	}
}

func TestRecoverAbortsOnNackError(t *testing.T) {
	calls := 0
	rec := RecoverSubWindow(DefaultRetryPolicy(),
		func() []uint32 { return []uint32{1} },
		func([]uint32) error { calls++; return errors.New("uplink down") },
		func(time.Duration) {})
	if rec.Complete || calls != 1 || rec.Rounds != 0 {
		t.Fatalf("nack error did not abort: %+v after %d calls", rec, calls)
	}
}
