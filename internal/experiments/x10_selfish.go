package experiments

import (
	"fmt"
	"time"

	"repro/internal/chain"
)

// selfishSizes is X10's race sizes: full scale, then tiny.
var selfishSizes = [2]raceSize{{12, 150}, {2, 20}}

var selfishShares = []float64{0.2, 0.3, 0.35, 0.4, 0.45}

// selfishMatrix is experiment X10: beyond the outright 51 % takeover (X2),
// a withholding miner with a *minority* of the hashrate can earn more than
// its fair share of block rewards by strategically revealing a private
// branch (Eyal & Sirer). This sharpens the paper's §3.1 note that the 51 %
// attack is only one of blockchains' "well-known problems": the incentive
// mechanism itself is not incentive-compatible below 50 %.
//
// One seed gives the attacker's share of best-chain block rewards when
// mining honestly (≈ its hashrate share) and selfishly, per hashrate share,
// each averaging s.trials races. With no sybil network advantage (γ=0,
// ties go to the honest incumbent), selfish mining should lose below
// α≈1/3 and win above.
func selfishMatrix(env Env, s raceSize) Matrix {
	mx := Matrix{Cols: []string{"Honest Revenue", "Selfish Revenue"}}
	for _, share := range selfishShares {
		honest := averageRevenue(env, share, s, false)
		mx.add(fmt.Sprintf("%.0f%%", share*100), honest, averageRevenue(env, share, s, true))
	}
	return mx
}

// selfishTable renders X10 with a verdict column: does withholding pay?
func selfishTable(env Env, s raceSize) *Table {
	m := selfishMatrix(env, s)
	t := &Table{Headers: []string{"Hashrate Share", "Honest Revenue", "Selfish Revenue", "Selfish Pays Off"}}
	for r, v := range m.Vals {
		t.Add(m.Rows[r], fmt.Sprintf("%.2f", v[0]), fmt.Sprintf("%.2f", v[1]), v[1] > v[0])
	}
	return t
}

// averageRevenue fans the revenue trials over runTrials; per-trial
// seeds reproduce the original serial derivation base + i·104729.
func averageRevenue(env Env, share float64, s raceSize, selfish bool) float64 {
	sum := 0.0
	for _, v := range runTrials(env, strideSeeds(env.Seed, 104729, s.trials), 0, func(env Env) float64 {
		return selfishTrial(env, share, s.horizon, selfish)
	}) {
		sum += v
	}
	return sum / float64(s.trials)
}

// selfishTrial runs one race and returns the attacker's fraction of
// best-chain rewards as observed by the honest node.
func selfishTrial(env Env, share float64, horizonBlocks int, selfish bool) float64 {
	nw := env.Net()
	spacing := 10 * time.Second
	cfg := chain.Config{InitialDifficulty: 1 << 10}
	total := float64(cfg.InitialDifficulty) / spacing.Seconds()
	miners := newMinerNet(nw, 2, 0, cfg)
	honest, attacker := miners[0], miners[1]
	honest.SetHashrate(total * (1 - share))
	attacker.SetHashrate(total * share)

	if selfish {
		attachSelfishController(attacker)
	}
	honest.Start()
	attacker.Start()
	nw.Run(time.Duration(horizonBlocks) * spacing)
	honest.Stop()
	attacker.Stop()
	nw.RunAll()
	if selfish {
		// End of the game: publish any residual lead.
		attacker.Release()
		nw.RunAll()
	}

	attackerBlocks, totalBlocks := 0, 0
	attackerAddr := attacker.Address()
	for _, b := range honest.Chain().BestBlocks() {
		if b.Header.Height == 0 {
			continue
		}
		totalBlocks++
		if b.Txs[0].To == attackerAddr {
			attackerBlocks++
		}
	}
	if totalBlocks == 0 {
		return 0
	}
	return float64(attackerBlocks) / float64(totalBlocks)
}

// attachSelfishController wires the Eyal–Sirer strategy (γ=0 simplified)
// onto a miner: withhold own blocks; when the honest chain advances,
// publish just enough of the private branch to override or race.
func attachSelfishController(m *chain.Miner) {
	m.SetWithhold(true)
	m.SetMiningTarget(m.Chain().HeadHash())
	// forkHeight is the height of the block both branches agree on.
	forkHeight := m.Chain().Head().Header.Height
	honestHeight := forkHeight

	m.OnBlockAccepted(func(b *chain.Block, mined bool) {
		if mined {
			return // private lead grew; keep withholding
		}
		// An honest block arrived.
		if b.Header.Height <= honestHeight {
			return // stale or sibling
		}
		honestHeight = b.Header.Height
		lead := int(forkHeight) + len(m.Withheld()) - int(honestHeight)
		switch {
		case len(m.Withheld()) == 0:
			// Nothing private: adopt the honest tip as the new fork point.
			forkHeight = honestHeight
			m.SetMiningTarget(b.Hash())
		case lead <= 1:
			// Honest is at or within one of our private tip: publish the
			// whole branch. At lead 1 this overrides (ours is heavier); at
			// lead 0 it is the γ race, which the honest incumbent wins on
			// its own node — we keep mining on our published tip hoping to
			// extend first.
			priv := m.Withheld()
			tip := priv[len(priv)-1]
			forkHeight = tip.Header.Height
			m.Release()
			m.SetMiningTarget(tip.Hash())
		default:
			// Comfortable lead: keep withholding.
		}
	})
}
