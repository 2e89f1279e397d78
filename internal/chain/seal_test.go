package chain

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestSealTarget pins the split between a block's work and its seal: the
// host seals every header against min(Difficulty, sealWork), while the full
// Difficulty still sets fork choice, retargeting and discovery delay.
func TestSealTarget(t *testing.T) {
	for _, d := range []uint64{1, 2, 16, 1 << 10, 1 << 30} {
		cfg := Config{InitialDifficulty: d, Subsidy: 50}
		c, hc := NewChain(cfg), NewHeaderChain(cfg)
		b, err := c.NewBlock(c.HeadHash(), nil, time.Second, Address{1})
		if err != nil {
			t.Fatal(err)
		}
		if !b.Header.MeetsTarget() {
			t.Errorf("difficulty %d: ground header misses its seal target", d)
		}
		if err := hc.AddHeader(b.Header); err != nil {
			t.Errorf("difficulty %d: AddHeader: %v", d, err)
		}
		if err := c.AddBlock(b); err != nil {
			t.Errorf("difficulty %d: AddBlock: %v", d, err)
		}
		if got := c.WorkExpended().Uint64(); got != d {
			t.Errorf("difficulty %d: work expended %d, want the full difficulty", d, got)
		}
	}

	// An arbitrary nonce passes about once in min(d, sealWork) tries, and
	// AddHeader agrees with MeetsTarget on every one.
	rng := rand.New(rand.NewSource(34))
	for _, tc := range []struct {
		d      uint64
		lo, hi float64
	}{
		{2, 0.45, 0.55},
		{16, 1.0 / 32, 1.0 / 8},
		{1 << 10, 1.0 / 32, 1.0 / 8},
		{1 << 30, 1.0 / 32, 1.0 / 8},
	} {
		hc := NewHeaderChain(Config{})
		gh := hc.head
		const tries = 4096
		accepted := 0
		for i := 0; i < tries; i++ {
			h := Header{Prev: gh, Height: 1, Difficulty: tc.d, Nonce: rng.Uint64()}
			err := hc.AddHeader(h)
			if (err == nil) != h.MeetsTarget() || (err != nil && err != ErrHeaderBadPoW) {
				t.Fatalf("difficulty %d, nonce %d: AddHeader = %v, MeetsTarget = %v", tc.d, h.Nonce, err, h.MeetsTarget())
			}
			if err == nil {
				accepted++
			}
		}
		if share := float64(accepted) / tries; share < tc.lo || share > tc.hi {
			t.Errorf("difficulty %d: %.4f of random nonces seal, want [%.4f, %.4f]", tc.d, share, tc.lo, tc.hi)
		}
	}

	// Work and retargeting read the full difficulty: four blocks at twice
	// the target spacing halve 2³⁰.
	if got := Work(1 << 30).Uint64(); got != 1<<30 {
		t.Errorf("Work(2^30) = %d", got)
	}
	c := NewChain(Config{InitialDifficulty: 1 << 30, TargetSpacing: 10 * time.Second, RetargetInterval: 4})
	for i := 1; i <= 4; i++ {
		b, err := c.NewBlock(c.HeadHash(), nil, time.Duration(i)*20*time.Second, Address{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NextDifficulty(c.HeadHash()); got != 1<<29 {
		t.Errorf("retarget after blocks at twice the spacing: difficulty %d, want 2^29", got)
	}

	// A lone miner finds blocks every d/hashrate seconds of virtual time on
	// average: doubling d doubles the mean delay.
	const hashrate = 1 << 26
	const span = 16000 * time.Second
	for _, d := range []uint64{1 << 30, 1 << 31} {
		nw := simnet.New(34)
		m := NewMiner(nw.AddNode(), NewChain(Config{InitialDifficulty: d}), Address{2}, hashrate)
		m.Start()
		nw.Run(span)
		want := float64(d) / hashrate
		mean := span.Seconds() / float64(m.BlocksFound())
		if mean < 0.85*want || mean > 1.15*want {
			t.Errorf("difficulty %d: mean discovery delay %.2fs over %d blocks, want about %.0fs", d, mean, m.BlocksFound(), want)
		}
	}
}

// TestGrindStopsAtFirstSeal: Grind tries nonces upward from the header's
// own, wrapping past 2⁶⁴−1, and stops at the first that meets the seal
// target.
func TestGrindStopsAtFirstSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	wrapped := 0
	for _, d := range []uint64{0, 1, 2, 3, 16, 1 << 10, 1 << 30} {
		for i := 0; i < 12; i++ {
			start := Header{Height: rng.Uint64(), Time: rng.Int63(), Difficulty: d, Nonce: rng.Uint64()}
			rng.Read(start.Prev[:])
			rng.Read(start.MerkleRoot[:])
			if i%3 == 0 {
				start.Nonce = ^uint64(0) - uint64(rng.Intn(8)) // the search may wrap past 2⁶⁴−1
			}
			got := start
			got.Grind()
			if !got.MeetsTarget() {
				t.Fatalf("difficulty %d: Grind stopped at nonce %d, which misses the seal target", d, got.Nonce)
			}
			for probe := start; probe.Nonce != got.Nonce; probe.Nonce++ {
				if probe.MeetsTarget() {
					t.Fatalf("difficulty %d: Grind stopped at nonce %d, but nonce %d already sealed", d, got.Nonce, probe.Nonce)
				}
			}
			if got.Nonce < start.Nonce {
				wrapped++
			}
		}
	}
	if wrapped == 0 {
		t.Error("no search wrapped past 2⁶⁴−1")
	}
}
