package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/naming"
	"repro/internal/simnet"
)

// namesDemo drives the blockchain naming layer end to end on three
// in-process simulated miners — key generation, preorder, register,
// update, transfer and history, then a custom namespace's launch — the
// §3.1 Namecoin/Blockstack workflow, and writes each step's chain view to
// w. name must satisfy naming.ValidName.
func namesDemo(w io.Writer, seed int64, name string) {
	nw := simnet.New(seed)
	rng := rand.New(rand.NewSource(seed))
	alice := must(cryptoutil.GenerateKeyPair(rng))
	bob := must(cryptoutil.GenerateKeyPair(rng))
	fmt.Fprintf(w, "alice address: %s\nbob   address: %s\n\n", alice.Fingerprint().Short(), bob.Fingerprint().Short())

	spacing := 10 * time.Second
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{alice.Fingerprint(): 10_000},
	}
	miners := make([]*chain.Miner, 3)
	ids := make([]simnet.NodeID, 3)
	for i := range miners {
		node := nw.AddNode()
		ids[i] = node.ID()
		miners[i] = chain.NewMiner(node, chain.NewChain(cfg), cryptoutil.SumHash([]byte{byte(i)}), float64(cfg.InitialDifficulty)/spacing.Seconds()/3)
	}
	for i, m := range miners {
		var peers []simnet.NodeID
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
		m.Start()
	}
	// submit hands tx to the first miner and runs `blocks` block spacings so it
	// confirms; stopAll halts mining and drains the network.
	submit := func(tx *chain.Tx, blocks int) {
		miners[0].SubmitTx(tx)
		nw.Run(nw.Now() + time.Duration(blocks)*spacing)
	}
	stopAll := func() {
		for _, m := range miners {
			m.Stop()
		}
		nw.RunAll()
	}

	nameCfg := naming.DefaultConfig()
	client := naming.NewClient(alice, nameCfg, rng, 0)
	step := func(what string, tx *chain.Tx) {
		submit(tx, 4)
		rec, ok := naming.BuildIndex(miners[0].Chain(), nameCfg).Resolve(name)
		status := "unresolved"
		if ok {
			status = fmt.Sprintf("owner=%s value=%q expires@%d", rec.Owner.Short(), rec.Value, rec.ExpiresAt)
		}
		fmt.Fprintf(w, "%-28s height=%-4d %s\n", what, miners[0].Chain().Height(), status)
	}
	step("preorder (salted commit)", must(client.Preorder(name)))
	step("register (reveal)", client.Register(name, []byte("zonefile-v1")))
	step("update zone", client.Update(name, []byte("zonefile-v2")))
	step("transfer to bob", client.Transfer(name, bob.Fingerprint()))
	stopAll()

	if rec, ok := naming.BuildIndex(miners[0].Chain(), nameCfg).Resolve(name); ok {
		fmt.Fprintf(w, "\nhistory of %q:\n", name)
		for _, ev := range rec.History {
			fmt.Fprintf(w, "  height %-4d %-9s owner=%s value=%q\n", ev.Height, ev.Op, ev.Owner.Short(), ev.Value)
		}
	}

	// Launch a custom namespace and register inside it.
	fmt.Fprintf(w, "\nnamespace lifecycle (.demo, base fee 2, lifetime 200 blocks):\n")
	for _, m := range miners {
		m.Start()
	}
	client.SetNonce(miners[0].Chain().State().Nonce(alice.Fingerprint()))
	submit(must(client.NamespacePreorder("demo")), 3)
	submit(client.NamespaceReveal("demo", 2, 200), 3)
	submit(client.NamespaceReady("demo"), 3)
	submit(must(client.Preorder("bob.demo")), 3)
	submit(client.RegisterWithFee("bob.demo", []byte("ns zone"), 2*32), 4)
	idx := naming.BuildIndex(miners[0].Chain(), nameCfg)
	if ns, ok := idx.Namespace("demo"); ok {
		fmt.Fprintf(w, "  namespace %q ready=%v baseFee=%d period=%d\n", ns.ID, ns.Ready, ns.BaseFee, ns.RegistrationPeriod)
	}
	if rec, ok := idx.Resolve("bob.demo"); ok {
		fmt.Fprintf(w, "  bob.demo → owner=%s expires@%d (namespace lifetime)\n", rec.Owner.Short(), rec.ExpiresAt)
	}
	stopAll()

	c := miners[0].Chain()
	fmt.Fprintf(w, "\nchain: height=%d blocks=%d ledger=%d bytes (endless-ledger growth) work=%v hashes\n",
		c.Height(), c.NumBlocks(), c.TotalBytes(), c.WorkExpended())
}

// must returns v, panicking on err: the demo's key generation and
// preorders fail only on a bug, since its names are validated up front.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
