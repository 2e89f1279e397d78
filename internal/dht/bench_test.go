package dht

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simnet"
)

// BenchmarkClosest times one K=20 selection from a table that has seen n
// random contacts (it keeps at most K per bucket), for random targets —
// the query a peer answers for every find_node and find_value it serves.
func BenchmarkClosest(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			var self Key
			rng.Read(self[:])
			rt := newRoutingTable(self, 20)
			for i := 0; i < n; i++ {
				c := Contact{Addr: simnet.NodeID(i)}
				rng.Read(c.ID[:])
				rt.observe(c)
			}
			targets := make([]Key, 256)
			for i := range targets {
				rng.Read(targets[i][:])
			}
			r := replyPool.Get()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Contacts = rt.appendClosest(r.Contacts[:0], targets[i%len(targets)], 20)
			}
			b.ReportMetric(float64(rt.size()), "contacts")
		})
	}
}

// BenchmarkLookup times one Get of a stored key from a rotating peer of a
// settled network of 1,000 peers (K=8, α=3, as in dht_mixed).
func BenchmarkLookup(b *testing.B) {
	b.Run("1k", func(b *testing.B) {
		const n = 1000
		nw := simnet.New(44)
		peers := make([]*Peer, n)
		cfg := Config{K: 8, Alpha: 3, RequestTimeout: 2 * time.Second}
		for i := range peers {
			peers[i] = NewPeer(nw.AddNode(), Key{}, cfg)
		}
		for i := 1; i < n; i++ {
			p := peers[i]
			nw.After(time.Duration(i)*20*time.Millisecond, func() { p.Bootstrap(peers[0].Contact(), nil) })
		}
		nw.RunAll()
		k := key("bench")
		peers[0].Put(k, []byte("v"), nil)
		nw.RunAll()
		found := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			peers[(i*7919)%n].Get(k, func(_ []byte, ok bool) {
				if ok {
					found++
				}
			})
			nw.RunAll()
		}
		if found < b.N*9/10 {
			b.Fatalf("%d of %d Gets found the value", found, b.N)
		}
	})
}
