package experiments

import (
	"fmt"
	"time"

	"repro/internal/chain"
)

// raceSize sizes a mining-race experiment (X2, X10): races averaged per
// cell, and the race length in expected blocks. fiftyOneSizes is X2's,
// full scale then tiny.
type raceSize struct{ trials, horizon int }

var fiftyOneSizes = [2]raceSize{{20, 18}, {2, 6}}

var fiftyOneShares = []float64{0.1, 0.2, 0.3, 0.4, 0.45, 0.55, 0.6, 0.75}

// fiftyOneMatrix is experiment X2: an attacker with a fraction q of the
// network hashrate mines a private branch from genesis while honest miners
// extend the public chain; after a fixed horizon the attacker publishes.
// Success means the honest replica reorgs onto the attacker branch. The
// paper (§3.1) lists the 51 % attack among blockchains' "well-known
// problems": success probability should collapse for q < 0.5 and approach
// certainty above it. One seed gives one (win rate %, mean lead) pair per
// attacker share, each averaging s.trials races.
func fiftyOneMatrix(env Env, s raceSize) Matrix {
	mx := Matrix{Cols: []string{"Reorg Success Rate", "Mean Attacker Lead (blocks)"}}
	for _, share := range fiftyOneShares {
		win, lead := fiftyOneRow(env, share, s)
		mx.add(fmt.Sprintf("%.0f%%", share*100), win*100, lead)
	}
	return mx
}

// fiftyOneRow fans the per-share trials over runTrials and reduces to
// (win rate, mean attacker lead). The per-trial seeds reproduce the
// original serial derivation base + trial·1000.
func fiftyOneRow(env Env, share float64, s raceSize) (winRate, meanLead float64) {
	type outcome struct {
		won  bool
		lead int
	}
	outs := runTrials(env, strideSeeds(env.Seed+int64(share*100), 1000, s.trials), 0, func(env Env) outcome {
		won, lead := fiftyOneTrial(env, share, s.horizon)
		return outcome{won, lead}
	})
	wins := 0
	var leadSum float64
	for _, o := range outs {
		if o.won {
			wins++
		}
		leadSum += float64(o.lead)
	}
	return float64(wins) / float64(s.trials), leadSum / float64(s.trials)
}

// fiftyOneTrial runs one race and reports whether the honest node reorged
// onto the attacker branch, plus the attacker's block lead at publication.
func fiftyOneTrial(env Env, share float64, horizonBlocks int) (bool, int) {
	nw := env.Net()
	spacing := 10 * time.Second
	cfg := chain.Config{InitialDifficulty: 1 << 10, Subsidy: 50}
	total := float64(cfg.InitialDifficulty) / spacing.Seconds() // network hashrate for 1 block/spacing

	miners := newMinerNet(nw, 2, 0, cfg)
	honest, attacker := miners[0], miners[1]
	honest.SetHashrate(total * (1 - share))
	attacker.SetHashrate(total * share)
	attacker.SetWithhold(true)
	attacker.SetMiningTarget(attacker.Chain().HeadHash()) // fork at genesis

	honest.Start()
	attacker.Start()
	nw.Run(time.Duration(horizonBlocks) * spacing)
	honest.Stop()
	attacker.Stop()
	nw.RunAll()

	lead := len(attacker.Withheld()) - int(honest.Chain().Height())
	attacker.Release()
	nw.RunAll()
	return honest.Chain().Reorgs() > 0, lead
}
