package experiments

import (
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Env is what one run of an experiment is handed: the seed it draws from,
// the scale it runs at, the engine layout its networks are built on and
// the collector their metric registries join. A trial, or a run whose seed
// is derived from its cell, takes a copy with another seed (WithSeed);
// nothing else reaches a run.
type Env struct {
	Seed int64
	// Tiny selects the test-suite row of an experiment's sizes table.
	Tiny bool
	// Layout is the engine every network of the run is built on; the zero
	// value is the single-heap engine. Its Seed is ignored: Net seeds each
	// network with Env.Seed.
	Layout simnet.NetworkConfig
	// col, when non-nil, is the bench entry's collector: every registry of
	// every network Net builds is attached to it.
	col *obs.Collector
}

// Net builds a network from the env's seed and layout and attaches every
// registry it owns, root and per-shard, to the env's collector. It is the
// only network constructor experiments call.
func (e Env) Net() *simnet.Network {
	cfg := e.Layout
	cfg.Seed = e.Seed
	nw := simnet.NewWithConfig(cfg)
	if e.col != nil {
		for _, r := range nw.Registries() {
			e.col.Attach(r)
		}
	}
	return nw
}

// WithSeed is a copy of e that draws from seed.
func (e Env) WithSeed(seed int64) Env {
	e.Seed = seed
	return e
}

// runTrials runs run once per seed on simnet.Trials workers, each on a copy
// of env with that seed, and returns the results in seed order.
func runTrials[T any](env Env, seeds []int64, workers int, run func(Env) T) []T {
	return simnet.Trials(seeds, workers, func(seed int64) T { return run(env.WithSeed(seed)) })
}
