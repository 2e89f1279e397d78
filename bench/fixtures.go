package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/overload"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// The layer fixtures of the traced pass: micro-runs over two shared worlds
// (10k nodes on the default engine, 100k nodes on 64 shards), each timing
// only calls into one layer's public API. A layer's self cost is the
// fixture with the layer minus the same call sequence without it.

const (
	fixNodes       = 10_000
	fixShardNodes  = 100_000
	fixNodesShort  = 200
	fixShardShort  = 2_000
	fixCallsPer    = 10 // calls, sends or timer fires per node and micro-run
	fixShardPer    = 3
	fixRounds      = 3 // interleaved rounds per variant; the median is kept
	fixIdleWindows = 20_000
	fixChainTxs    = 1_000
	fixIDPasses    = 20 // passes over the transactions per tx_id round
	fixBlockTxs    = 200
)

// micro is one timed micro-run: host time and heap allocations of a RunAll.
type micro struct {
	ns, mallocs float64
}

func timeRun(tr *tracer, name string, nw *simnet.Network) micro {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := time.Now()
	tr.do(name, 1, nw.RunAll)
	d := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return micro{float64(d), float64(ms.Mallocs - m0)}
}

// medianNS runs f rounds times, each in a span of its own, and returns the
// median host time of a round in nanoseconds.
func medianNS(tr *tracer, name string, calls, rounds int, f func()) float64 {
	ns := make([]float64, rounds)
	for i := range ns {
		t0 := time.Now()
		tr.do(name, calls, f)
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}

// medianMicro keeps, field by field, the median of the rounds.
func medianMicro(rounds []micro) micro {
	ns, ma := make([]float64, len(rounds)), make([]float64, len(rounds))
	for i, r := range rounds {
		ns[i], ma[i] = r.ns, r.mallocs
	}
	return micro{median(ns), median(ma)}
}

// pinger is one node of the bare Send ping-pong: every delivery sends the
// next 16-byte message back until the node's budget is spent.
type pinger struct {
	node *simnet.Node
	left int
}

const pingKind = "bench.ping"

func newPinger(node *simnet.Node) *pinger {
	p := &pinger{node: node}
	node.Handle(pingKind, func(msg simnet.Message) {
		if p.left > 0 {
			p.left--
			p.node.Send(msg.From, pingKind, nil, 16)
		}
	})
	return p
}

// pingPong starts per sends from every node to its ring neighbour; each is
// answered until both ends run out, so per×nodes×2 messages are delivered
// at most. It returns the number delivered.
func pingPong(tr *tracer, name string, nw *simnet.Network, ps []*pinger, per int) (micro, int64) {
	for _, p := range ps {
		p.left = per
	}
	d0 := nw.Trace().Delivered
	for i, p := range ps {
		p.left--
		p.node.Send(ps[(i+1)%len(ps)].node.ID(), pingKind, nil, 16)
	}
	m := timeRun(tr, name, nw)
	return m, nw.Trace().Delivered - d0
}

// fixCaller is one node's closed echo loop over any call path.
type fixCaller struct {
	call func(to simnet.NodeID, method string, done func(any, error))
	to   simnet.NodeID
	left int
	meth string
	done func(any, error)
}

func (c *fixCaller) onDone(any, error) {
	if c.left--; c.left > 0 {
		c.call(c.to, c.meth, c.done)
	}
}

func echoLoop(tr *tracer, name string, nw *simnet.Network, cs []*fixCaller, method string, per int) micro {
	for _, c := range cs {
		c.left, c.meth = per, method
		c.call(c.to, method, c.done)
	}
	return timeRun(tr, name, nw)
}

// runFixtures runs every layer fixture and returns the fixture-sourced
// per-layer metrics.
func runFixtures(c runConfig, tr *tracer) metricSet {
	m := metricSet{}
	id := tr.begin("fixtures", 1)
	defer tr.end(id)
	n, nShard := fixNodes, fixShardNodes
	if c.short {
		n, nShard = fixNodesShort, fixShardShort
	}
	fixtureDefault(c, tr, m, n)
	fixtureSharded(c, tr, m, nShard)
	fixtureChain(c, tr, m)
	fixtureWorkload(c, tr, m)
	return m
}

// fixtureDefault is the 10k-node default-engine world: build cost, timers,
// bare sends, and the echo through raw RPC, resil and overload.
func fixtureDefault(c runConfig, tr *tracer, m metricSet, n int) {
	nw := simnet.New(c.seed)
	rpcs := make([]*simnet.RPCNode, n)
	forceGC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	t0 := time.Now()
	tr.do("simnet.AddNode+NewRPCNode", n, func() {
		for i := range rpcs {
			rpcs[i] = simnet.NewRPCNode(nw.AddNode())
		}
	})
	m["simnet.build_ns_per_node"] = float64(time.Since(t0)) / float64(n)
	forceGC()
	runtime.ReadMemStats(&ms)
	m["simnet.build_bytes_per_node"] = float64(ms.HeapAlloc-heap0) / float64(n)

	echo := func(_ simnet.NodeID, req any) (any, int) { return req, echoReplyBytes }
	ovCfg := flashOvCfg()
	raw := make([]*fixCaller, n)
	res := make([]*fixCaller, n)
	pingers := make([]*pinger, n)
	for i, r := range rpcs {
		r.Serve(echoMethod, echo)
		overload.New(r, ovCfg).Protect(echoMethod+".ov", echo)
		to := rpcs[(i+1)%n].Node().ID()
		rpc, rc := r, resil.New(r, resil.Defaults())
		raw[i] = &fixCaller{to: to, call: func(to simnet.NodeID, method string, done func(any, error)) {
			rpc.Call(to, method, echoReq, echoReqBytes, echoTimeout, done)
		}}
		res[i] = &fixCaller{to: to, call: func(to simnet.NodeID, method string, done func(any, error)) {
			rc.Call(to, method, echoReq, echoReqBytes, echoTimeout, done)
		}}
		raw[i].done, res[i].done = raw[i].onDone, res[i].onDone
		pingers[i] = newPinger(r.Node())
	}

	// Timers only: schedule and fire, no messages — the engine alone.
	fires := n * fixCallsPer
	left := make([]int, n)
	var fire simnet.EventFunc
	fire = func(arg any) {
		i := arg.(int)
		if left[i]--; left[i] > 0 {
			rpcs[i].Node().AfterCall(time.Millisecond, fire, arg)
		}
	}
	boxed := make([]any, n)
	for i := range left {
		left[i], boxed[i] = fixCallsPer, i
		rpcs[i].Node().AfterCall(time.Millisecond, fire, boxed[i])
	}
	timers := timeRun(tr, "fixture.simnet.timers", nw)
	m["simnet.timer_ns_per_fire"] = timers.ns / float64(fires)

	// One warm-up pass of each echo path fills pools and estimators; then
	// the variants run interleaved so that slow host-noise waves hit all of
	// them alike.
	pingPong(tr, "fixture.warmup", nw, pingers, 2)
	echoLoop(tr, "fixture.warmup", nw, raw, echoMethod, 2)
	echoLoop(tr, "fixture.warmup", nw, res, echoMethod, 4)
	echoLoop(tr, "fixture.warmup", nw, raw, echoMethod+".ov", 2)
	var send, rawR, resR, ovR []micro
	var msgs int64
	for i := 0; i < fixRounds; i++ {
		s, d := pingPong(tr, "fixture.simnet.send", nw, pingers, fixCallsPer)
		send, msgs = append(send, s), d
		rawR = append(rawR, echoLoop(tr, "fixture.rpc.echo", nw, raw, echoMethod, fixCallsPer))
		resR = append(resR, echoLoop(tr, "fixture.resil.echo", nw, res, echoMethod, fixCallsPer))
		ovR = append(ovR, echoLoop(tr, "fixture.overload.echo", nw, raw, echoMethod+".ov", fixCallsPer))
	}
	calls := float64(n * fixCallsPer)
	sendM, rawM, resM, ovM := medianMicro(send), medianMicro(rawR), medianMicro(resR), medianMicro(ovR)
	m["simnet.send_ns_per_msg"] = sendM.ns / float64(msgs)
	m["simnet.send_allocs_per_msg"] = sendM.mallocs / float64(msgs)
	m["rpc.call_ns"] = rawM.ns/calls - 2*m["simnet.send_ns_per_msg"]
	m["rpc.allocs_per_call"] = rawM.mallocs / calls
	m["resil.call_overhead_ns"] = (resM.ns - rawM.ns) / calls
	m["resil.allocs_per_call"] = (resM.mallocs - rawM.mallocs) / calls
	m["overload.admit_overhead_ns"] = (ovM.ns - rawM.ns) / calls
	// fixture.rpc_ns_per_msg is the baseline dht.self_ns_per_msg subtracts.
	m["fixture.rpc_ns_per_msg"] = rawM.ns / calls / 2
}

// fixtureSharded is the 100k-node, 64-shard world: bare sends, windows that
// hold one timer and nothing else, and the same sends on two workers.
func fixtureSharded(c runConfig, tr *tracer, m metricSet, n int) {
	build := func(workers int) (*simnet.Network, []*pinger) {
		nw := simnet.NewWithConfig(simnet.NetworkConfig{Seed: c.seed, Shards: gossipShards, Workers: workers})
		ps := make([]*pinger, n)
		tr.do("simnet.AddNode", n, func() {
			for i := range ps {
				ps[i] = newPinger(nw.AddNode())
			}
		})
		return nw, ps
	}
	nw, ps := build(1)
	pingPong(tr, "fixture.warmup", nw, ps, 1)
	one, msgs := pingPong(tr, "fixture.simnet.shard.send", nw, ps, fixShardPer)
	m["simnet.shard.send_ns_per_msg"] = one.ns / float64(msgs)

	// A timer every 10 ms, five lookaheads apart, is a window of its own:
	// what the barrier, the outbox probe and the dispatch cost when there is
	// nothing to do.
	windows := fixIdleWindows
	if c.short {
		windows /= 20
	}
	left := windows
	var tick simnet.EventFunc
	tick = func(any) {
		if left--; left > 0 {
			ps[0].node.AfterCall(10*time.Millisecond, tick, nil)
		}
	}
	ps[0].node.AfterCall(10*time.Millisecond, tick, nil)
	idle := timeRun(tr, "fixture.simnet.shard.idle", nw)
	m["simnet.shard.idle_window_ns"] = idle.ns / float64(windows)

	workers := 2
	if runtime.NumCPU() < 2 {
		workers = 1
	}
	nw2, ps2 := build(workers)
	pingPong(tr, "fixture.warmup", nw2, ps2, 1)
	two, _ := pingPong(tr, "fixture.simnet.shard.send.parallel", nw2, ps2, fixShardPer)
	m["simnet.shard.parallel_speedup"] = one.ns / two.ns
}

// fixtureChain times the chain layer with no network: signature checks,
// transaction ids, and pre-built blocks fed to a fresh Chain.AddBlock.
func fixtureChain(c runConfig, tr *tracer, m metricSet) {
	nTx := fixChainTxs
	if c.short {
		nTx = 2 * fixBlockTxs
	}
	rng := rand.New(rand.NewSource(c.seed))
	alloc := map[chain.Address]uint64{}
	wallets := make([]*chain.Wallet, ledgerWallets)
	for i := range wallets {
		kp, err := cryptoutil.GenerateKeyPair(rng)
		if err != nil {
			panic(err) // a math/rand reader cannot fail
		}
		wallets[i] = chain.NewWallet(kp, 0)
		alloc[kp.Fingerprint()] = 1 << 40
	}
	txs := make([]*chain.Tx, nTx)
	tr.do("fixture.chain.sign", nTx, func() {
		for i := range txs {
			txs[i] = wallets[i%len(wallets)].Pay(wallets[(i+1)%len(wallets)].Address(), 1, 1)
		}
	})
	m["chain.checksig_ns"] = medianNS(tr, "fixture.chain.checksig", nTx, fixRounds, func() {
		for _, tx := range txs {
			if err := tx.CheckSig(); err != nil {
				panic(err) // signed a few lines up
			}
		}
	}) / float64(nTx)
	var sink byte
	m["chain.tx_id_ns"] = medianNS(tr, "fixture.chain.tx_id", fixIDPasses*nTx, fixRounds, func() {
		for pass := 0; pass < fixIDPasses; pass++ {
			for _, tx := range txs {
				id := tx.ID()
				sink ^= id[0]
			}
		}
	}) / float64(fixIDPasses*nTx)
	_ = sink

	cfg := chain.Config{InitialDifficulty: ledgerDifficulty, TargetSpacing: ledgerSpacing, MaxTxsPerBlock: fixBlockTxs, GenesisAlloc: alloc}
	src := chain.NewChain(cfg)
	var blocks []*chain.Block
	tr.do("fixture.chain.build_blocks", nTx/fixBlockTxs, func() {
		for i := 0; i+fixBlockTxs <= nTx; i += fixBlockTxs {
			b, err := src.NewBlock(src.HeadHash(), txs[i:i+fixBlockTxs], time.Duration(i)*time.Second, chain.Address{1})
			if err == nil {
				err = src.AddBlock(b)
			}
			if err != nil {
				panic(err) // in-order nonces on a funded genesis
			}
			blocks = append(blocks, b)
		}
	})
	m["chain.addblock_ns_per_tx"] = medianNS(tr, "fixture.chain.addblock", len(blocks), fixRounds, func() {
		fresh := chain.NewChain(cfg)
		for _, b := range blocks {
			if err := fresh.AddBlock(b); err != nil {
				panic(err) // the source chain accepted it
			}
		}
	}) / float64(len(blocks)*fixBlockTxs)
}

// fixtureWorkload times the request generator on a fixed small schedule.
func fixtureWorkload(c runConfig, tr *tracer, m metricSet) {
	rs := workload.DefaultRegions(flashRegions, flashDay)
	cfg := workload.StreamConfig{
		Seed: c.seed, Clients: 200, Horizon: 10 * time.Minute,
		Pop:     workload.NewZipf(64, 1.1),
		Rate:    workload.NewDiurnal(workload.DiurnalConfig{Mean: 50, Amp: 0.6, Floor: 0.5, Period: flashDay}),
		Flash:   workload.Flash{Object: 63, Start: 3 * time.Minute, Ramp: time.Minute, Peak: 1000, Decay: 90 * time.Second},
		Regions: &rs,
	}
	var reqs []workload.Request
	ns := medianNS(tr, "fixture.workload.generate", 1, 2*fixRounds-1, func() { reqs = workload.Generate(cfg) })
	m["workload.generate_ns_per_req"] = ns / float64(len(reqs))
}
