package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"A", "LongHeader"}}
	tab.Add("x", 42)
	tab.Add("longer-cell", true)
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "LongHeader") || !strings.Contains(s, "longer-cell") {
		t.Errorf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), s)
	}
}

func TestTable1Table2Table3(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 4 {
		t.Errorf("table1 rows = %d", len(t1.Rows))
	}
	t2 := Table2()
	if len(t2.Rows) != 7 {
		t.Errorf("table2 rows = %d", len(t2.Rows))
	}
	t3 := Table3()
	if len(t3.Rows) != 3 {
		t.Errorf("table3 rows = %d", len(t3.Rows))
	}
	s := t3.String()
	for _, want := range []string{"200 Tbps", "5000 Tbps", "400 M", "500 M", "80 EB", "210 EB"} {
		if !strings.Contains(s, want) {
			t.Errorf("table3 missing %q:\n%s", want, s)
		}
	}
	z := ZookoTable()
	if len(z.Rows) != 5 {
		t.Errorf("zooko rows = %d", len(z.Rows))
	}
}

func TestNamingSchemesShape(t *testing.T) {
	m := namingMatrix(Env{Seed: 1}, 8)
	if len(m.Rows) < 3 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	// Centralized latency must be far below blockchain latency.
	centLat, bcLat := m.Vals[0][0], m.Vals[1][0]
	if centLat <= 0 || bcLat <= 0 {
		t.Fatalf("latencies %v %v: %v", centLat, bcLat, m.Vals)
	}
	if bcLat < 10*centLat {
		t.Errorf("blockchain (%vs) should be ≫ centralized (%vs)", bcLat, centLat)
	}
	// And the slower block spacing must be slower still.
	bcSlow := m.Vals[2][0]
	if bcSlow <= bcLat {
		t.Errorf("30s spacing (%v) should beat 5s spacing (%v) in latency? no — it should be larger", bcSlow, bcLat)
	}
}

func TestFiftyOnePercentMonotone(t *testing.T) {
	m := fiftyOneMatrix(Env{Seed: 7}, raceSize{trials: 6, horizon: 12})
	if len(m.Rows) != 8 {
		t.Fatalf("rows = %d", len(m.Rows))
	}
	lowShare := m.Vals[0][0]  // 10%
	highShare := m.Vals[7][0] // 75%
	if lowShare > 40 {
		t.Errorf("10%% attacker succeeded %v%% of the time: %v", lowShare, m.Vals)
	}
	if highShare < 60 {
		t.Errorf("75%% attacker succeeded only %v%%: %v", highShare, m.Vals)
	}
	if highShare <= lowShare {
		t.Errorf("success rate should grow with hash share: %v", m.Vals)
	}
}

// doubleSpend demonstrates the canonical consequence of a successful
// private-branch attack: a payment confirmed on the public chain vanishes
// after the reorg. It returns the victim's observed balance before and
// after the attack branch is published.
func doubleSpend(seed int64) (before, after uint64) {
	nw := simnet.New(seed)
	spacing := 10 * time.Second
	kp, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		panic(err)
	}
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		GenesisAlloc:      map[chain.Address]uint64{kp.Fingerprint(): 1000},
	}
	total := float64(cfg.InitialDifficulty) / spacing.Seconds()
	miners := newMinerNet(nw, 2, 0, cfg)
	honest, attacker := miners[0], miners[1]
	honest.SetHashrate(total * 0.3)
	attacker.SetHashrate(total * 0.7)
	attacker.SetWithhold(true)
	attacker.SetMiningTarget(attacker.Chain().HeadHash())

	victim := chain.Address{0x56}
	pay := &chain.Tx{To: victim, Amount: 500, Fee: 1, Nonce: 0, Kind: chain.KindPayment}
	pay.Sign(kp)
	// The attacker (who colludes with the payer in the classic scenario)
	// seeds its private mempool with a conflicting, higher-fee spend of the
	// same nonce back to the payer, so the private branch never includes
	// the victim's payment.
	conflict := &chain.Tx{To: kp.Fingerprint(), Amount: 0, Fee: 5, Nonce: 0, Kind: chain.KindPayment}
	conflict.Sign(kp)
	attacker.Pool().Add(conflict)

	honest.Start()
	attacker.Start()
	nw.After(time.Second, func() { honest.SubmitTx(pay) })
	nw.Run(20 * spacing)
	honest.Stop()
	attacker.Stop()
	nw.RunAll()

	before = honest.Chain().State().Balance(victim)
	attacker.Release()
	nw.RunAll()
	after = honest.Chain().State().Balance(victim)
	return before, after
}

func TestDoubleSpend(t *testing.T) {
	before, after := doubleSpend(3)
	if before != 500 {
		t.Fatalf("victim balance before attack = %d, want 500", before)
	}
	if after != 0 {
		t.Fatalf("victim balance after reorg = %d, want 0 (payment erased)", after)
	}
}

func TestCommAvailabilityShape(t *testing.T) {
	m := commAvailabilityMatrix(Env{Seed: 11}, commSize{servers: 10, fails: []float64{0, 0.3}})
	if len(m.Rows) != 4 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	// f=0: everything should deliver.
	for r := 0; r < 4; r++ {
		if got := m.Vals[r][0]; got < 0.95 {
			t.Errorf("%s at f=0: %.2f, want ≈1: %v", m.Rows[r], got, m.Vals)
		}
	}
	// f=0.3: centralized collapses to 0; replicated beats home-federated.
	if got := m.Vals[0][1]; got != 0 {
		t.Errorf("centralized at f=0.3 = %v, want 0", got)
	}
	fedHome, fedRepl := m.Vals[1][1], m.Vals[2][1]
	if fedRepl <= fedHome {
		t.Errorf("replicated federation (%.2f) should beat home federation (%.2f): %v", fedRepl, fedHome, m.Vals)
	}
}

func TestSocialP2PShape(t *testing.T) {
	m := socialP2PMatrix(Env{Seed: 13}, socialSize{users: 20, degree: []int{2, 8}, uptime: []float64{0.5, 1.0}}, socialTrials)
	if len(m.Rows) != 2 {
		t.Fatalf("rows = %d", len(m.Rows))
	}
	// Full uptime should deliver everything regardless of degree.
	if m.Vals[0][1] < 0.95 || m.Vals[1][1] < 0.95 {
		t.Errorf("full-uptime delivery below 1: %v", m.Vals)
	}
	// At 50%% uptime, higher degree should not hurt.
	if m.Vals[1][0]+0.15 < m.Vals[0][0] {
		t.Errorf("higher degree materially hurt delivery: %v", m.Vals)
	}

	exp := metadataExposure(Env{}, 10)
	if len(exp.Rows) != 4 {
		t.Errorf("exposure rows = %d", len(exp.Rows))
	}
}

func TestStorageDurabilityShape(t *testing.T) {
	m := durabilityMatrix(Env{Seed: 17}, durabilitySize{objects: 12, providers: 24, horizon: 4 * time.Hour, dead: 0.5})
	if len(m.Rows) != 5 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	r1NoRepair := m.Vals[0][0]
	r3NoRepair := m.Vals[2][0]
	if r3NoRepair < r1NoRepair {
		t.Errorf("r=3 (%v%%) should survive at least as well as r=1 (%v%%): %v", r3NoRepair, r1NoRepair, m.Vals)
	}
	r3Repair := m.Vals[2][1]
	if r3Repair < r3NoRepair {
		t.Errorf("repair (%v%%) should not reduce survival (%v%%): %v", r3Repair, r3NoRepair, m.Vals)
	}
	if r3Repair < 90 {
		t.Errorf("r=3 with repair should survive ≈100%%, got %v%%: %v", r3Repair, m.Vals)
	}
}

func TestStorageAttacksMatrix(t *testing.T) {
	tab := storageAttacks(Env{Seed: 19})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	cell := func(r, c int) string { return tab.Rows[r][c] }
	// Honest passes everything.
	for c := 1; c <= 3; c++ {
		if cell(0, c) != "pass (correct)" {
			t.Errorf("honest column %d = %q:\n%s", c, cell(0, c), tab)
		}
	}
	// Dropper caught by all three.
	for c := 1; c <= 3; c++ {
		if cell(1, c) != "caught" {
			t.Errorf("dropper column %d = %q:\n%s", c, cell(1, c), tab)
		}
	}
	// Corrupter caught by all three.
	for c := 1; c <= 3; c++ {
		if cell(2, c) != "caught" {
			t.Errorf("corrupter column %d = %q:\n%s", c, cell(2, c), tab)
		}
	}
	// Outsourcer caught by timing on PoS and PoRet.
	if cell(3, 1) != "caught" || cell(3, 2) != "caught" {
		t.Errorf("outsourcer should be caught by deadline:\n%s", tab)
	}
	// Dedup cheater passes PoS/PoRet (it stores the plain chunk!) but is
	// caught by proof-of-replication.
	if cell(4, 1) != "PASS (missed!)" || cell(4, 2) != "PASS (missed!)" {
		t.Errorf("dedup should evade plain-storage proofs:\n%s", tab)
	}
	if cell(4, 3) != "caught" {
		t.Errorf("dedup must be caught by proof-of-replication:\n%s", tab)
	}
}

func TestHostlessWebShape(t *testing.T) {
	m := hostlessMatrix(Env{Seed: 23}, 24)
	if len(m.Rows) != 2 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	// Both architectures serve fine while the publisher is alive.
	if m.Vals[0][0] < 90 || m.Vals[1][0] < 90 {
		t.Errorf("pre-death availability too low: %v", m.Vals)
	}
	// After the publisher dies: client-server collapses, hostless survives.
	if got := m.Vals[0][1]; got > 10 {
		t.Errorf("client-server after origin death = %v%%, want ≈0: %v", got, m.Vals)
	}
	if got := m.Vals[1][1]; got < 80 {
		t.Errorf("hostless after author death = %v%%, want high: %v", got, m.Vals)
	}
	// Hostless spreads load: the author should serve well under 100% of bytes.
	if got := m.Vals[1][2]; got >= 99 {
		t.Errorf("author share = %v%%, seeding not spreading load: %v", got, m.Vals)
	}
}

func TestIncentiveDemos(t *testing.T) {
	tab := incentiveDemos(Env{Seed: 29})
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		switch row[0] {
		case "IPFS":
			if !strings.Contains(row[2], "served") || !strings.Contains(row[3], "refused") {
				t.Errorf("bitswap row wrong: %v", row)
			}
		case "Blockstack":
			if !strings.Contains(row[2], "bound on chain") {
				t.Errorf("blockstack row wrong: %v", row)
			}
		default:
			if !strings.Contains(row[2], "passed") {
				t.Errorf("%s honest outcome wrong: %v", row[0], row)
			}
			if !strings.Contains(row[3], "failed") {
				t.Errorf("%s cheater outcome wrong: %v", row[0], row)
			}
		}
	}
}

func TestUsenetLoadShape(t *testing.T) {
	m := usenetMatrix(Env{Seed: 5}, usenetSize{servers: []int{4, 16}, posts: 10, bytes: 256})
	if len(m.Rows) != 2 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	usenetSmall, usenetLarge := m.Vals[0][0], m.Vals[1][0]
	fedSmall, fedLarge := m.Vals[0][1], m.Vals[1][1]
	// Usenet per-server cost grows ~linearly with network size.
	if usenetLarge < 3*usenetSmall {
		t.Errorf("usenet cost did not scale with network size: %v", m.Vals)
	}
	// Federated-home per-server cost stays ~flat.
	if fedLarge > 1.5*fedSmall {
		t.Errorf("federated-home cost should stay flat: %v", m.Vals)
	}
	// At scale, flooding costs more per server than follower-scoped sync.
	if usenetLarge <= fedLarge {
		t.Errorf("usenet at 16 servers should out-cost federated-home: %v", m.Vals)
	}
}

func TestFeasibilitySensitivityShape(t *testing.T) {
	tab := feasibilitySensitivity()
	if len(tab.Rows) < 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Paper constants: everything sufficient.
	for c := 2; c <= 4; c++ {
		if tab.Rows[0][c] != "true" {
			t.Errorf("paper row column %d = %q:\n%s", c, tab.Rows[0][c], tab)
		}
	}
	// 25 GB free per PC drops device storage below the cloud's 80 EB.
	found := false
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "25 GB") {
			found = true
			if row[4] != "false" {
				t.Errorf("25GB variant should break the storage conclusion:\n%s", tab)
			}
		}
	}
	if !found {
		t.Error("25 GB variant missing")
	}
	// Quality discount at 3x redundancy breaks storage too.
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "3x redundancy") && row[4] != "false" {
			t.Errorf("quality-discount row should break storage:\n%s", tab)
		}
	}
}

func TestAbuseContainmentShape(t *testing.T) {
	m := abuseMatrix(Env{Seed: 7}, abuseSize{users: 12, coverages: []float64{0, 0.5, 1}})
	if len(m.Rows) != 3 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	v := m.Vals
	// Centralized: step function — full exposure off, zero on.
	if v[0][0] != 1 || v[0][2] != 0 {
		t.Errorf("centralized should be all-or-nothing: %v", v)
	}
	// Federated: monotone decreasing in coverage, partial at 50%%.
	if !(v[1][0] > v[1][1] && v[1][1] > v[1][2]) {
		t.Errorf("federated exposure should fall with coverage: %v", v)
	}
	if v[1][2] != 0 {
		t.Errorf("full federated coverage should stop all spam: %v", v)
	}
	// Social P2P: zero exposure from strangers; grows with befriending.
	if v[2][0] != 0 {
		t.Errorf("stranger spam should be refused by the trust graph: %v", v)
	}
	if v[2][2] != 1 {
		t.Errorf("fully-befriended spammer reaches everyone: %v", v)
	}
}

func TestSelfishMiningCrossover(t *testing.T) {
	m := selfishMatrix(Env{Seed: 11}, raceSize{trials: 8, horizon: 120})
	if len(m.Rows) != 5 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	v := m.Vals // per share: honest, selfish revenue
	// At 20% hashrate with γ=0 selfish mining must lose.
	if v[0][1] >= v[0][0] {
		t.Errorf("selfish should lose at 20%%: %v", v)
	}
	// At 45% it must win, and clearly exceed the fair share.
	if v[4][1] <= v[4][0] {
		t.Errorf("selfish should win at 45%%: %v", v)
	}
	if v[4][1] < 0.5 {
		t.Errorf("selfish at 45%% should exceed half the rewards: %v", v)
	}
}

func TestDHTQualityShape(t *testing.T) {
	m := dhtQualityMatrix(Env{Seed: 5}, dhtSize{peers: 30, lookups: 25}, dhtTrials)
	if len(m.Rows) != 9 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	v := m.Vals // per row: success %, mean ms, p99 ms
	// Stable networks succeed nearly always on every profile.
	for _, r := range []int{0, 3, 6} {
		if v[r][0] < 85 {
			t.Errorf("%s stable success too low: %v", m.Rows[r], v)
		}
	}
	// Device-grade latency must dominate datacenter latency (stable rows).
	dc, bb, mob := v[0][1], v[3][1], v[6][1]
	if !(dc < bb && bb < mob) {
		t.Errorf("latency ordering dc(%v) < broadband(%v) < mobile(%v) violated: %v", dc, bb, mob, v)
	}
	// Republish should not hurt success under churn (average over profiles).
	withR, withoutR := 0.0, 0.0
	for _, r := range []int{1, 4, 7} {
		withR += v[r][0]
	}
	for _, r := range []int{2, 5, 8} {
		withoutR += v[r][0]
	}
	if withR < withoutR {
		t.Errorf("republish should improve churn survival on average: %v", v)
	}
}

func TestWoTSybilShape(t *testing.T) {
	m := wotSybilMatrix(Env{Seed: 3}, wotSize{honest: 12, rings: []int{10, 100}})
	if len(m.Rows) != 2 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	for i, ring := range []int{10, 100} {
		before, after := int(m.Vals[i][0]), int(m.Vals[i][1])
		if before != 0 {
			t.Errorf("ring %d: %d sybils trusted before any bridge: %v", ring, before, m.Vals)
		}
		if after != ring {
			t.Errorf("ring %d: %d trusted after bridge, want the whole ring: %v", ring, after, m.Vals)
		}
	}
}

func TestLedgerGrowthShape(t *testing.T) {
	m := ledgerMatrix(Env{Seed: 9}, ledgerSize{hours: 2, txPerBlock: 10})
	if len(m.Rows) != 2 {
		t.Fatalf("rows = %d: %v", len(m.Rows), m.Rows)
	}
	blocks1, blocks2 := int(m.Vals[0][0]), int(m.Vals[1][0])
	if blocks2 <= blocks1 || blocks1 < 100 {
		t.Errorf("chain not growing: %d then %d: %v", blocks1, blocks2, m.Vals)
	}
	states1, states2 := int(m.Vals[0][3]), int(m.Vals[1][3])
	if states1 != 101 || states2 != 101 {
		t.Errorf("compaction not holding states constant: %d, %d: %v", states1, states2, m.Vals)
	}
}
