package simnet

import (
	"testing"
	"time"
)

// BenchmarkSimnetSend measures the message hot path: Send scheduling plus
// event-loop delivery, amortized over batches so the queue stays shallow.
func BenchmarkSimnetSend(b *testing.B) {
	nw := New(1)
	src := nw.AddNode()
	dst := nw.AddNode()
	dst.Handle("bench", func(m Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(dst.ID(), "bench", nil, 256)
		if i%256 == 255 {
			nw.RunAll()
		}
	}
	nw.RunAll()
}

// BenchmarkSimnetTimer measures schedule/cancel churn typical of protocol
// retry patterns: every scheduled timeout is cancelled before it fires.
func BenchmarkSimnetTimer(b *testing.B) {
	nw := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.After(time.Duration(i%1000)*time.Millisecond, func() {})
		if i%1024 == 1023 {
			nw.RunAll()
		}
	}
	nw.RunAll()
}

// BenchmarkRPCRoundTrip measures the RPC layer's round trip at population
// scale: 10k RPCNodes each keep one call outstanding to a rotating
// neighbour, so an op is one call — request, dispatch, reply, completion
// and timeout timer — on a heap of 10k pending timeouts.
func BenchmarkRPCRoundTrip(b *testing.B) {
	const nodes = 10_000
	nw := New(1)
	loop := &benchLoop{left: b.N}
	for i := 0; i < nodes; i++ {
		r := NewRPCNode(nw.AddNode())
		r.Serve("bench.echo", func(_ NodeID, req any) (any, int) { return req, 8 })
		loop.callers = append(loop.callers, &benchCaller{loop: loop, rpc: r, idx: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, c := range loop.callers {
		c.next()
	}
	nw.RunAll()
}

// benchLoop is BenchmarkRPCRoundTrip's closed loop: left counts the calls
// still to issue across all callers.
type benchLoop struct {
	callers []*benchCaller
	left    int
}

// benchCaller is one node of the loop; it is its own Completion, so
// issuing a call allocates nothing in the benchmark.
type benchCaller struct {
	loop      *benchLoop
	rpc       *RPCNode
	idx, made int
}

func (c *benchCaller) next() {
	l := c.loop
	if l.left == 0 {
		return
	}
	l.left--
	c.made++
	to := l.callers[(c.idx+1+c.made%16)%len(l.callers)] // 16 rotating neighbours
	c.rpc.CallTo(to.rpc.Node().ID(), "bench.echo", nil, 16, 5*time.Second, c)
}

func (c *benchCaller) CallDone(any, time.Duration, error) { c.next() }
