package gossip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

func BenchmarkFlood50(b *testing.B) {
	nw, members := buildGroup(b, 10, 50, Config{Fanout: 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		members[i%50].Publish(item(fmt.Sprintf("bench-%d", i)))
		nw.Run(nw.Now() + time.Minute)
	}
}

// BenchmarkAntiEntropyInSync is the round 96 % of all rounds are at 100k
// members: two members holding the same 16 items, one digest sent, diffed
// and found to need no reply.
func BenchmarkAntiEntropyInSync(b *testing.B) {
	nw, members := buildGroup(b, 10, 2, Config{Fanout: 3})
	items := numbered("held", 16)
	hold(members[0], items)
	hold(members[1], items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members[0].sendDigest()
		nw.Run(nw.Now() + time.Second)
	}
	if tr := nw.Trace(); tr.Delivered != int64(b.N) {
		b.Fatalf("%d messages delivered in %d in-sync rounds: a delta was sent", tr.Delivered, b.N)
	}
}

// BenchmarkSyncDiff times onSync on holdings of n items where each side
// lacks 1 % of what the other holds: the diff, and the delta's trip to a
// handler that drops it, so that the holdings stay as they are.
func BenchmarkSyncDiff(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			nw, members := buildGroup(b, 10, 2, Config{Fanout: 3})
			members[0].node.Handle(msgDelta, func(simnet.Message) {})
			miss := (n + 99) / 100
			items := numbered("held", n+miss)
			hold(members[0], items[:n])
			hold(members[1], items[miss:])
			msg := simnet.Message{
				From: members[0].node.ID(), To: members[1].node.ID(), Kind: msgSync,
				Payload: &syncDigest{held: members[0].log},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				members[1].onSync(msg)
				nw.RunAll()
			}
		})
	}
}
