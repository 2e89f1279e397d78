package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/naming"
	"repro/internal/simnet"
)

// newMinerNet builds n fully meshed miners with fresh chain replicas on an
// existing network; the shared helper for every chain-backed experiment.
func newMinerNet(nw *simnet.Network, n int, hashrate float64, cfg chain.Config) []*chain.Miner {
	miners := make([]*chain.Miner, n)
	for i := range miners {
		addr := cryptoutil.SumHash([]byte{byte(i), 0x4D})
		miners[i] = chain.NewMiner(nw.AddNode(), chain.NewChain(cfg), addr, hashrate)
	}
	ids := nodeIDs(miners)
	for i, m := range miners {
		m.SetPeers(othersOf(ids, i))
	}
	return miners
}

// namingSizes is X1's names registered per scheme: full scale, then tiny.
var namingSizes = [2]int{20, 3}

// namingMatrix is experiment X1: it registers nNames names under the
// centralized registrar and under the blockchain scheme at two block
// spacings, and reports per scheme the mean and max submit→resolvable
// latency (seconds), the throughput (names/min) and how many names
// confirmed. It quantifies §3.1: "blockchains essentially trade
// scalability and performance for global consensus and security."
func namingMatrix(env Env, nNames int) Matrix {
	m := Matrix{Cols: []string{"Mean Latency", "Max Latency", "Throughput (names/min)", "Confirmed"}}
	m.add("centralized-registrar", registrarNamingRun(env, nNames)...)
	for _, spacing := range []time.Duration{5 * time.Second, 30 * time.Second} {
		m.add(fmt.Sprintf("blockchain (block every %v)", spacing), blockchainNamingRun(env.WithSeed(env.Seed+int64(spacing)), nNames, spacing)...)
	}
	return m
}

// namingTable renders X1: the registrar's sub-second latencies to two
// decimals, the chains' to whole seconds, and a note under a chain that
// confirmed fewer than all names before its deadline.
func namingTable(env Env, nNames int) *Table {
	m := namingMatrix(env, nNames)
	t := &Table{Headers: []string{"Scheme", "Mean Latency", "Max Latency", "Throughput (names/min)", "Censorable by One Party"}}
	for r, v := range m.Vals {
		if r == 0 {
			t.Add(m.Rows[r], fmt.Sprintf("%.2fs", v[0]), fmt.Sprintf("%.2fs", v[1]), fmt.Sprintf("%.0f", v[2]), true)
			continue
		}
		t.Add(m.Rows[r], fmt.Sprintf("%.0fs", v[0]), fmt.Sprintf("%.0fs", v[1]), fmt.Sprintf("%.1f", v[2]), false)
		if n := int(v[3]); n < nNames {
			t.Add(fmt.Sprintf("  (only %d/%d confirmed before deadline)", n, nNames), "", "", "", "")
		}
	}
	return t
}

// registrarNamingRun registers names one after another with a
// centralized registrar and returns namingMatrix's row.
func registrarNamingRun(env Env, nNames int) []float64 {
	nw := env.Net()
	reg := naming.NewCentralizedRegistrar(nw.AddNode())
	client := naming.NewRegistrarClient(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()), reg.Node().ID(), time.Minute)
	var lat samples
	start := nw.Now()
	var lastDone time.Duration
	var registerNext func(i int)
	registerNext = func(i int) {
		if i >= nNames {
			return
		}
		t0 := nw.Now()
		client.Register(fmt.Sprintf("name-%04d", i), chain.Address{byte(i)}, nil, func(ok bool) {
			if ok {
				lat.add(float64(nw.Now()-t0) / float64(time.Second))
				lastDone = nw.Now()
			}
			registerNext(i + 1)
		})
	}
	registerNext(0)
	nw.Run(time.Hour)
	return []float64{lat.mean(), lat.quantile(1), perMinute(len(lat), lastDone-start), float64(len(lat))}
}

// blockchainNamingRun registers names on a 3-miner chain and returns
// namingMatrix's row.
func blockchainNamingRun(env Env, nNames int, spacing time.Duration) []float64 {
	nw := env.Net()
	key, err := cryptoutil.GenerateKeyPair(rand.New(rand.NewSource(env.Seed)))
	if err != nil {
		panic(err)
	}
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{key.Fingerprint(): 1 << 40},
	}
	// Aggregate hashrate targets the requested spacing.
	miners := newMinerNet(nw, 3, float64(cfg.InitialDifficulty)/spacing.Seconds()/3, cfg)
	for _, m := range miners {
		m.Start()
	}
	nameCfg := naming.DefaultConfig()
	client := naming.NewClient(key, nameCfg, rand.New(rand.NewSource(env.Seed+1)), 0)

	name := func(i int) string { return fmt.Sprintf("bname-%04d", i) }
	submitAt := map[string]time.Duration{}
	resolvedAt := map[string]time.Duration{}
	preorderTx := map[string]cryptoutil.Hash{}

	// Phase 1: submit all preorders. Phase 2 (per name): once the preorder
	// is buried under one extra block (so the register necessarily lands at
	// age ≥ MinPreorderAge), submit the register. Poll the first miner's
	// chain replica.
	start := nw.Now()
	registered := map[string]bool{}
	for i := 0; i < nNames; i++ {
		tx, err := client.Preorder(name(i))
		if err != nil {
			panic(err)
		}
		submitAt[name(i)] = nw.Now()
		preorderTx[name(i)] = tx.ID()
		miners[0].SubmitTx(tx)
	}
	deadline := start + 2*time.Hour
	var poll func()
	poll = func() {
		c := miners[0].Chain()
		idx := naming.BuildIndex(c, nameCfg)
		allDone := true
		for i := 0; i < nNames; i++ {
			nm := name(i)
			if _, ok := resolvedAt[nm]; ok {
				continue
			}
			allDone = false
			if _, ok := idx.Resolve(nm); ok {
				resolvedAt[nm] = nw.Now()
				continue
			}
			if !registered[nm] {
				if _, blk := c.FindTx(preorderTx[nm]); blk != nil && c.Confirmations(blk.Hash()) >= 2 {
					registered[nm] = true
					miners[0].SubmitTx(client.Register(nm, []byte("zone")))
				}
			}
		}
		if !allDone && nw.Now() < deadline {
			nw.After(spacing/2, poll)
		}
	}
	nw.After(spacing, poll)
	nw.Run(deadline + time.Minute)
	for _, m := range miners {
		m.Stop()
	}

	var lat samples
	var last time.Duration
	for nm, at := range resolvedAt {
		lat.add(float64(at-submitAt[nm]) / float64(time.Second))
		if at > last {
			last = at
		}
	}
	if len(lat) == 0 {
		return []float64{0, 0, 0, 0}
	}
	return []float64{lat.mean(), lat.quantile(1), perMinute(len(lat), last-start), float64(len(lat))}
}

// perMinute returns count per minute of elapsed virtual time, or 0 when no
// time elapsed.
func perMinute(count int, elapsed time.Duration) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(count) / (float64(elapsed) / float64(time.Minute))
}
