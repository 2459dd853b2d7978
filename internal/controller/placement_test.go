package controller

import (
	"fmt"
	"math/rand"
	"testing"

	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
)

// collidingKeys returns n distinct keys that share one hashing.Place64
// value, built from the fold's algebra: Place64 is Mix64(ips ^ ports*m),
// with ips the two addresses as one word, ports the ports and protocol
// packed into 40 bits and m the package's odd multiplier, so any choice of
// ports with ips = target ^ ports*m lands on Mix64(target).
func collidingKeys(t *testing.T, n int) []packet.FlowKey {
	t.Helper()
	const m = 0x9E3779B185EBCA87 // the fold's multiplier (hashing's prime1)
	const target = 0x0A000001C0A80001
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		k := packet.FlowKey{SrcPort: uint16(40000 + i), DstPort: 443, Proto: packet.ProtoTCP}
		ips := target ^ (uint64(k.SrcPort)<<24|uint64(k.DstPort)<<8|uint64(k.Proto))*m
		k.SrcIP, k.DstIP = uint32(ips>>32), uint32(ips)
		keys[i] = k
		if hashing.Place64(k) != hashing.Place64(keys[0]) {
			t.Fatalf("key %d %+v does not collide with %+v: the fold changed, rebuild collidingKeys from it", i, k, keys[0])
		}
	}
	return keys
}

// TestFullHashCollisionsStayExact: keys whose whole placement hash
// collides share a shard, a home slot and a tag in both indexes, so only
// the full-key comparisons in table.row and HotTracker.lookup tell them
// apart. 64 of them go through the controller's insert, merge and retire
// against the map-table model, across restores into other shard counts,
// and through ObserveAFRs and Decay against the map tracker.
func TestFullHashCollisionsStayExact(t *testing.T) {
	keys := collidingKeys(t, 64)
	for ki, k := range diffKinds {
		for pi, p := range diffPlans {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("table/%s/size%d-slide%d/shards%d", k.name, p.Size, p.Slide, shards), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(ki*100 + pi*10 + shards)))
					data := make([]byte, 3000)
					rng.Read(data)
					runTableOps(t, diffConfig(ki, pi, shards), keys, data, false)
				})
			}
		}
	}
	for _, tc := range []hotCase{
		{"dup-in-batch", 16, 3, 64, 128, 3, 4},
		{"threshold-1", 8, 1, 64, 40, 5, 2},
		{"repromote", 4096, 3, 64, 128, 2, 1},
	} {
		t.Run("hot/"+tc.name, func(t *testing.T) {
			runHotModel(t, tc, func(i int) packet.FlowKey { return keys[i] })
		})
	}
}
