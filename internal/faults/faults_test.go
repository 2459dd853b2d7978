package faults

import (
	"bytes"
	"fmt"
	"testing"
)

func payload(i int) []byte {
	return []byte(fmt.Sprintf("datagram-%04d-payload", i))
}

// sendAll pushes n datagrams through the injector and returns everything
// put on the wire, including the final flush.
func sendAll(in *Injector, n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, in.Datagrams(payload(i))...)
	}
	return append(out, in.Flush()...)
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 0.2, Duplicate: 0.2, Reorder: 0.2, Truncate: 0.1, Corrupt: 0.1}
	a := sendAll(New(cfg), 200)
	b := sendAll(New(cfg), 200)
	if len(a) != len(b) {
		t.Fatalf("same seed, different wire counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed, different datagram %d", i)
		}
	}
	if sa, sb := New(cfg), New(cfg); func() bool {
		sendAll(sa, 200)
		sendAll(sb, 200)
		return sa.Stats() != sb.Stats()
	}() {
		t.Fatal("same seed, different stats")
	}
}

func TestZeroConfigPassesThrough(t *testing.T) {
	in := New(Config{Seed: 1})
	for i := 0; i < 50; i++ {
		p := payload(i)
		out := in.Datagrams(p)
		if len(out) != 1 || !bytes.Equal(out[0], p) {
			t.Fatalf("zero config altered datagram %d: %q", i, out)
		}
		// The output must not alias the caller's buffer: senders reuse it.
		p[0] ^= 0xFF
		if out[0][0] == p[0] {
			t.Fatal("output aliases the input buffer")
		}
	}
	s := in.Stats()
	if s.Events != 50 || s != (Stats{Events: 50}) {
		t.Fatalf("zero config injected faults: %+v", s)
	}
}

func TestDropAll(t *testing.T) {
	in := New(Config{Seed: 3, Drop: 1})
	if out := sendAll(in, 40); len(out) != 0 {
		t.Fatalf("drop-all leaked %d datagrams", len(out))
	}
	if s := in.Stats(); s.Dropped != 40 {
		t.Fatalf("dropped %d of 40", s.Dropped)
	}
}

func TestDuplicateAll(t *testing.T) {
	in := New(Config{Seed: 5, Duplicate: 1, MaxDuplicates: 3})
	for i := 0; i < 40; i++ {
		out := in.Datagrams(payload(i))
		if len(out) < 2 || len(out) > 4 {
			t.Fatalf("event %d: %d copies outside [2,4]", i, len(out))
		}
		for _, d := range out {
			if !bytes.Equal(d, payload(i)) {
				t.Fatalf("event %d: copy differs from original", i)
			}
		}
	}
	if s := in.Stats(); s.Duplicated == 0 {
		t.Fatal("no duplicates counted")
	}
}

func TestReorderParksAndFlushReleases(t *testing.T) {
	in := New(Config{Seed: 11, Reorder: 1, ReorderDepth: 100})
	sent := 30
	var wired [][]byte
	for i := 0; i < sent; i++ {
		wired = append(wired, in.Datagrams(payload(i))...)
	}
	if len(wired) >= sent {
		t.Fatalf("reorder-all parked nothing: %d of %d on the wire", len(wired), sent)
	}
	wired = append(wired, in.Flush()...)
	if len(wired) != sent {
		t.Fatalf("flush lost datagrams: %d of %d", len(wired), sent)
	}
	// Every payload arrives exactly once, but not in send order.
	seen := make(map[string]int)
	inOrder := true
	for i, d := range wired {
		seen[string(d)]++
		if !bytes.Equal(d, payload(i)) {
			inOrder = false
		}
	}
	for i := 0; i < sent; i++ {
		if seen[string(payload(i))] != 1 {
			t.Fatalf("payload %d seen %d times", i, seen[string(payload(i))])
		}
	}
	if inOrder {
		t.Fatal("reorder-all delivered in send order")
	}
	if s := in.Stats(); s.Reordered != sent {
		t.Fatalf("reordered %d of %d", s.Reordered, sent)
	}
}

func TestTruncateAndCorrupt(t *testing.T) {
	tin := New(Config{Seed: 13, Truncate: 1})
	for i := 0; i < 20; i++ {
		p := payload(i)
		for _, d := range tin.Datagrams(p) {
			if len(d) >= len(p) || !bytes.Equal(d, p[:len(d)]) {
				t.Fatalf("truncation produced %q from %q", d, p)
			}
		}
	}

	cin := New(Config{Seed: 13, Corrupt: 1})
	for i := 0; i < 20; i++ {
		p := payload(i)
		out := cin.Datagrams(p)
		if len(out) != 1 || len(out[0]) != len(p) {
			t.Fatalf("corruption changed datagram count/length")
		}
		diff := 0
		for j := range p {
			if out[0][j] != p[j] {
				diff++
				if b := out[0][j] ^ p[j]; b&(b-1) != 0 {
					t.Fatalf("corruption flipped more than one bit in byte %d", j)
				}
			}
		}
		if diff != 1 {
			t.Fatalf("corruption touched %d bytes, want 1", diff)
		}
	}
}

// TestScheduleAlignment: enabling one fault kind must not shift another's
// schedule — the per-event draw count is fixed.
func TestScheduleAlignment(t *testing.T) {
	droppedIdx := func(cfg Config) []int {
		in := New(cfg)
		var idx []int
		for i := 0; i < 300; i++ {
			if len(in.Datagrams([]byte("xxxxxxxxxxxxxxxx"))) == 0 && len(in.Flush()) == 0 {
				idx = append(idx, i)
			}
		}
		return idx
	}
	base := droppedIdx(Config{Seed: 42, Drop: 0.3})
	with := droppedIdx(Config{Seed: 42, Drop: 0.3, Corrupt: 1, Truncate: 0.0})
	if len(base) != len(with) {
		t.Fatalf("corruption shifted the drop schedule: %d vs %d drops", len(base), len(with))
	}
	for i := range base {
		if base[i] != with[i] {
			t.Fatalf("drop schedule diverged at event %d", base[i])
		}
	}
}

func TestPacketAction(t *testing.T) {
	in := New(Config{Seed: 9, Drop: 1})
	for i := 0; i < 10; i++ {
		if a := in.Packet(); !a.Drop {
			t.Fatal("drop-all packet survived")
		}
	}
	in = New(Config{Seed: 9, Duplicate: 1, Delay: 1})
	for i := 0; i < 10; i++ {
		a := in.Packet()
		if a.Drop || a.Duplicates < 1 {
			t.Fatalf("unexpected action %+v", a)
		}
	}
}
