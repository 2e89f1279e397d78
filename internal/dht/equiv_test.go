package dht

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// closest returns up to n contacts nearest to target, sorted by XOR
// distance ascending, in a fresh slice of exactly that length.
func (rt *routingTable) closest(target Key, n int) []Contact {
	if n = min(n, rt.size()); n <= 0 {
		return nil
	}
	return rt.appendClosest(make([]Contact, 0, n), target, n)
}

// tableContacts lists every contact in rt, in no particular order.
func tableContacts(rt *routingTable) []Contact {
	var all []Contact
	for _, bk := range rt.b {
		all = append(all, bk.entries...)
	}
	return all
}

// TestClosestMatchesFullSort holds the distance-ordered bucket walk to the
// plain answer: sort the whole table by distance and take n. Tables are
// built from random IDs plus IDs sharing 1–4 leading bytes with self, so
// the near buckets are populated too; a third of the full-bucket nominees
// are evicted in favour of the newcomer and a few contacts are removed,
// so buckets drain and refill.
func TestClosestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randKey := func() Key {
		var k Key
		rng.Read(k[:])
		return k
	}
	near := func(self Key) Key {
		k := randKey()
		copy(k[:1+rng.Intn(4)], self[:])
		return k
	}
	for trial := 0; trial < 60; trial++ {
		self := randKey()
		k := 1 + rng.Intn(20)
		rt := newRoutingTable(self, k)
		inserts := rng.Intn(3001)
		for i := 0; i < inserts; i++ {
			id := randKey()
			if rng.Intn(3) == 0 {
				id = near(self)
			}
			c := Contact{ID: id, Addr: simnet.NodeID(i)}
			if old, full := rt.observe(c); full && rng.Intn(3) == 0 {
				rt.evict(old, c)
			}
			if rng.Intn(50) == 0 {
				all := tableContacts(rt)
				if len(all) > 0 {
					rt.remove(all[rng.Intn(len(all))].ID)
				}
			}
		}
		all := tableContacts(rt)
		if len(all) != rt.size() {
			t.Fatalf("trial %d: table lists %d contacts, size() says %d", trial, len(all), rt.size())
		}
		targets := []Key{self, randKey(), near(self), near(self)}
		if len(all) > 0 {
			targets = append(targets, all[rng.Intn(len(all))].ID)
		}
		for ti, target := range targets {
			ref := append([]Contact(nil), all...)
			sort.Slice(ref, func(i, j int) bool { return DistanceLess(target, ref[i].ID, ref[j].ID) })
			for n := 1; n <= 30; n++ {
				got := rt.closest(target, n)
				want := ref[:min(n, len(ref))]
				if len(got) != len(want) || (len(got) > 0 && cap(got) != len(got)) {
					t.Fatalf("trial %d (K=%d, size %d) target %d n=%d: len %d cap %d, want len %d",
						trial, k, len(all), ti, n, len(got), cap(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d (K=%d, size %d) target %d n=%d: position %d is %s, want %s",
							trial, k, len(all), ti, n, i, got[i].ID.Short(), want[i].ID.Short())
					}
				}
			}
		}
	}
}

// TestDerivedIDsUnique: no two nodes of a population up to 2^18 share a
// derived DHT ID, and the IDs below 2^16 are the historical two-byte ones.
func TestDerivedIDsUnique(t *testing.T) {
	const n = 1 << 18
	seen := make(map[Key]simnet.NodeID, n)
	for id := simnet.NodeID(0); id < n; id++ {
		k := derivedID(id)
		if prev, dup := seen[k]; dup {
			t.Fatalf("nodes %d and %d share derived ID %s", prev, id, k.Short())
		}
		seen[k] = id
	}
	if got, want := derivedID(0x1234), key("\x34\x12\xD7"); got != want {
		t.Errorf("derivedID(0x1234) = %s, want the two-byte preimage's %s", got.Short(), want.Short())
	}
}

// TestDHTTraceDigestPinned pins everything observable about a lossy,
// crash-ridden 300-peer run — each Put's, Get's and LookupNode's outcome
// and completion instant, the network's message counters, its registry
// snapshot (the DHT's lookup, hop, store and serve counters among them), and
// every peer's routing table, bucket by bucket in recency order — to one
// SHA-256. The routing table, the lookup and the reply path may be
// rewritten for speed; they may not move one send, one drop or one result.
// Re-pin it only when the hashed inputs change, on unchanged protocol
// code, never to absorb a protocol change.
func TestDHTTraceDigestPinned(t *testing.T) {
	const want = "02d0b8620c71bf8252da000decaebd9900dd3d02a5022d223bda144a0708601f"
	const (
		n   = 300
		ops = 450
	)
	nw := simnet.New(31)
	nw.SetDefaultProfile(simnet.LinkProfile{Latency: 5 * time.Millisecond, Jitter: 3 * time.Millisecond, Loss: 0.02})
	peers := make([]*Peer, n)
	for i := range peers {
		peers[i] = NewPeer(nw.AddNode(), Key{}, Config{K: 8, RequestTimeout: time.Second})
	}
	for i := 1; i < n; i++ {
		p := peers[i]
		nw.After(time.Duration(i)*20*time.Millisecond, func() { p.Bootstrap(peers[0].Contact(), nil) })
	}
	nw.RunAll()

	start := nw.Now()
	plan := fault.NewPlan()
	for i := 10; i < 70; i += 2 {
		id := peers[i].Node().ID()
		plan.CrashAt(5*time.Second+time.Duration(i)*100*time.Millisecond, id)
		if i%4 == 0 {
			plan.RestartAt(15*time.Second+time.Duration(i)*100*time.Millisecond, id)
		}
	}
	plan.ApplyAt(nw, start)

	outcome := make([]string, ops)
	for i := 0; i < ops; i++ {
		i := i
		nw.Schedule(start+time.Duration(i)*50*time.Millisecond, func() {
			p := peers[(i*7)%n]
			k := key(fmt.Sprintf("digest-%d", i%40))
			switch i % 3 {
			case 0:
				p.Put(k, []byte{byte(i)}, func(stored int) {
					outcome[i] = fmt.Sprintf("put %d @%v", stored, nw.Now())
				})
			case 1:
				p.Get(k, func(v []byte, ok bool) {
					outcome[i] = fmt.Sprintf("get %x %v @%v", v, ok, nw.Now())
				})
			default:
				p.LookupNode(key(fmt.Sprintf("target-%d", i)), func(cs []Contact) {
					var b strings.Builder
					for _, c := range cs {
						fmt.Fprintf(&b, " %d:%s", c.Addr, c.ID.Short())
					}
					outcome[i] = fmt.Sprintf("lookup%s @%v", b.String(), nw.Now())
				})
			}
		})
	}
	nw.RunAll()

	h := sha256.New()
	for i, o := range outcome {
		fmt.Fprintf(h, "op %d %s\n", i, o)
	}
	fmt.Fprintf(h, "trace %+v\n", *nw.Trace())
	if err := obs.MergeRegistries([]*obs.Registry{nw.Obs()}).EncodeJSON(h); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		fmt.Fprintf(h, "peer %d %d", i, p.TableSize())
		for idx := 0; idx < 256; idx++ {
			if bk := p.rt.at(idx); bk != nil {
				fmt.Fprintf(h, " b%d", idx)
				for _, c := range bk.entries {
					fmt.Fprintf(h, " %d:%s", c.Addr, c.ID.Short())
				}
			}
		}
		fmt.Fprintln(h)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("run digest %s, pinned %s (trace %+v)", got, want, *nw.Trace())
	}
}
