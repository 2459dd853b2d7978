package sketch

import (
	"math/rand"
	"testing"

	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
)

// The structures below hash a key once and run only the seeded tail per
// row. These tests hold their cell and bit placement against the per-row
// definition (one hashing.Key64 / hashing.Index call per function), which
// hashing's own tests pin to the frozen outputs.

func randFlowKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
		SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: uint8(rng.Uint32()),
	}
}

// TestBloomMaskMatchesModulo: the power-of-two mask path and the modulo
// path both set exactly the bits Key64(k, seed_i) % m names, and TestAndAdd,
// Add and Contains agree with a model built from that definition.
func TestBloomMaskMatchesModulo(t *testing.T) {
	for _, m := range []int{64, 1 << 12, 1 << 20, 192, 1000 * 64, 1<<20 + 64} {
		b := NewBloom(m, 3, uint64(0xB100F+m))
		if pow2 := b.m&(b.m-1) == 0; pow2 != (b.mask != 0) {
			t.Fatalf("m=%d: mask %#x does not match power-of-two=%v", b.m, b.mask, pow2)
		}
		model := make([]uint64, len(b.bits))
		rng := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < 20000; i++ {
			k := randFlowKey(rng)
			present := true
			for j := 0; j < b.fam.Size(); j++ {
				h := hashing.Key64(k, b.fam.Seed(j)) % b.m
				if model[h/64]&(1<<(h%64)) == 0 {
					present = false
				}
			}
			if got := b.Contains(k); got != present {
				t.Fatalf("m=%d key %d: Contains = %v, modulo model %v", b.m, i, got, present)
			}
			if i%2 == 0 {
				if got := b.TestAndAdd(k); got != present {
					t.Fatalf("m=%d key %d: TestAndAdd = %v, modulo model %v", b.m, i, got, present)
				}
			} else {
				b.Add(k)
			}
			for j := 0; j < b.fam.Size(); j++ {
				h := hashing.Key64(k, b.fam.Seed(j)) % b.m
				model[h/64] |= 1 << (h % 64)
			}
		}
		for w := range model {
			if b.bits[w] != model[w] {
				t.Fatalf("m=%d: word %d = %#x, modulo model %#x", b.m, w, b.bits[w], model[w])
			}
		}
	}
}

// TestCountMinSuMaxCellsMatchPerRowHash: Update and Query touch the cell
// hashing.Index(k, seed_i, w) in every row.
func TestCountMinSuMaxCellsMatchPerRowHash(t *testing.T) {
	const d, w = 4, 1 << 10
	cm, sm := NewCountMin(d, w, 5), NewSuMax(d, w, 5)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := randFlowKey(rng)
		var before, smBefore [d]uint64
		wantCM, wantSM := ^uint64(0), ^uint64(0)
		for r := 0; r < d; r++ {
			before[r] = cm.rows[r][hashing.Index(k, cm.fam.Seed(r), w)]
			smBefore[r] = sm.rows[r][hashing.Index(k, sm.fam.Seed(r), w)]
			wantCM, wantSM = min(wantCM, before[r]), min(wantSM, smBefore[r])
		}
		if got := cm.Query(k); got != wantCM {
			t.Fatalf("key %d: CountMin.Query = %d, per-row minimum %d", i, got, wantCM)
		}
		if got := sm.Query(k); got != wantSM {
			t.Fatalf("key %d: SuMax.Query = %d, per-row minimum %d", i, got, wantSM)
		}
		cm.Update(k, 3)
		sm.Update(k, 3)
		for r := 0; r < d; r++ {
			if got := cm.rows[r][hashing.Index(k, cm.fam.Seed(r), w)]; got != before[r]+3 {
				t.Fatalf("key %d row %d: CountMin cell = %d, want %d", i, r, got, before[r]+3)
			}
			if got, want := sm.rows[r][hashing.Index(k, sm.fam.Seed(r), w)], max(smBefore[r], wantSM+3); got != want {
				t.Fatalf("key %d row %d: SuMax cell = %d, want %d", i, r, got, want)
			}
		}
	}
}
