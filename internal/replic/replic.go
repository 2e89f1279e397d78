// Package replic is the demand-chasing replication layer: providers track
// per-object request rates with exponentially-decayed counters, advertise
// hot objects to their neighbor providers (hive-style, after swarm's
// bzz/hive neighbor gossip), push replicas toward the regions the demand
// is coming from, and garbage-collect replicas back toward a configured
// floor as popularity fades. Clients gain nearest-replica routing: holder
// candidates are ranked by the resilience layer's per-peer smoothed-RTT
// estimates, falling back to the region matrix's one-way delays for peers
// never contacted, with a hedge fetch to the second-nearest holder when
// the nearest is slow.
//
// The paper's §3 tension motivates the package: feudal platforms chase
// demand with CDNs while the decentralized alternatives surveyed serve
// every flash crowd from whatever static replica set they started with.
// X18 measured the collapse that causes; X19 measures what this layer
// buys back.
//
// Everything is seed-deterministic. Demand decay is a pure function of
// observation times (no wall clock), every protocol step runs on virtual
// time through node-local scheduling, advert and push fan-out iterate
// objects and peers in sorted order, and the layer draws no randomness at
// all — two runs with the same seed replicate and route identically at
// any trial-worker count or shard layout.
//
// A zero Config is the off switch: providers serve what they were given
// and never tick, clients fetch from holders in directory order with the
// caller's fixed timeout, no metrics register, and no extra events or RNG
// draws occur — so wiring the layer behind a disabled-by-default config
// field leaves existing goldens byte-identical.
//
// Metric names (network-scoped, see DESIGN.md §10):
//
//	replic.replicas.created   replicas installed by a push
//	replic.replicas.decayed   replicas released by popularity decay
//	replic.advert.sent        hive-style neighbor advertisements sent
//	replic.push.bytes         payload bytes moved by replica pushes
//	replic.route.nearest_hit  client fetches answered by the top-ranked holder
//	replic.route.hedge_fired  hedge fetches launched to the second-nearest
//	replic.origin.byte_share  gauge: origin share of served payload bytes (set by X19)
package replic

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/resil"
)

// Config tunes the replication layer. The zero value disables it
// entirely; Defaults() is the enabled configuration X19's adaptive arm
// runs with.
type Config struct {
	// Enabled turns the layer on. When false providers never tick,
	// advertise, push, or release, and clients degrade to fixed-timeout
	// directory-order fetching.
	Enabled bool
	// FloorK is the replica floor: garbage collection never takes an
	// object below this many holders, whatever its demand (default 2).
	FloorK int
	// Cap bounds replica growth however hot an object gets (default 6).
	Cap int
	// HotRate and ColdRate are the hysteresis thresholds in requests per
	// second of decayed swarm-wide demand: a holder advertises and
	// replicates above HotRate (default 0.5), and offers replicas back to
	// the directory below ColdRate (default 0.2). The gap between them is
	// what keeps a rate hovering near one threshold from flapping
	// replicas in and out.
	HotRate  float64
	ColdRate float64
	// PerReplicaRate is the demand one replica is sized to absorb, in
	// req/s: the target replica count for a hot object is
	// FloorK + rate/PerReplicaRate, clamped to [FloorK, Cap]
	// (default 1.0).
	PerReplicaRate float64
	// HalfLife is the demand counter decay half-life (default 30s).
	HalfLife time.Duration
	// TickEvery is the provider maintenance cadence: decay, advert, push,
	// and release decisions all happen on this period (default 15s).
	TickEvery time.Duration
	// Resilience, when enabled, carries client fetches and provider
	// control traffic on the adaptive transport; its per-peer SRTT
	// estimates then drive nearest-replica ranking.
	Resilience resil.Config
	// Overload, when enabled, puts the directory's control endpoints and
	// each provider's replic.get behind server-side overload control
	// (bounded queue, adaptive admission, priority control lane) — see
	// internal/overload. The zero value is a pure passthrough.
	Overload overload.Config
}

// Defaults returns the enabled configuration used by X19's adaptive arm.
func Defaults() Config {
	return Config{Enabled: true}.withDefaults()
}

func (c Config) withDefaults() Config {
	if !c.Enabled {
		return c
	}
	if c.FloorK == 0 {
		c.FloorK = 2
	}
	if c.Cap == 0 {
		c.Cap = 6
	}
	if c.HotRate == 0 {
		c.HotRate = 0.5
	}
	if c.ColdRate == 0 {
		c.ColdRate = 0.2
	}
	if c.PerReplicaRate == 0 {
		c.PerReplicaRate = 1.0
	}
	if c.HalfLife == 0 {
		c.HalfLife = 30 * time.Second
	}
	if c.TickEvery == 0 {
		c.TickEvery = 15 * time.Second
	}
	if c.FloorK < 1 || c.Cap < c.FloorK {
		panic(fmt.Sprintf("replic: need 1 <= FloorK <= Cap, got FloorK=%d Cap=%d", c.FloorK, c.Cap))
	}
	if c.ColdRate >= c.HotRate {
		panic(fmt.Sprintf("replic: hysteresis needs ColdRate < HotRate, got %g >= %g", c.ColdRate, c.HotRate))
	}
	return c
}

// TargetReplicas maps a decayed swarm-wide demand rate to the replica
// count the layer aims for: the floor plus one replica per
// PerReplicaRate of demand, clamped into [FloorK, Cap]. Degenerate rates
// (negative, NaN) clamp to the floor, so the result is a total function —
// the repo-root property test pins FloorK <= target <= Cap for every
// input.
func (c Config) TargetReplicas(rate float64) int {
	t := c.FloorK
	if rate > 0 && rate == rate { // NaN-safe
		extra := rate / c.PerReplicaRate
		if extra >= float64(c.Cap) { // also catches +Inf, where int() is undefined
			return c.Cap
		}
		t += int(extra)
	}
	if t < c.FloorK {
		t = c.FloorK
	}
	if t > c.Cap {
		t = c.Cap
	}
	return t
}

// replicMetrics is the package's network-scoped metric bundle, resolved
// once per registry via Memo (see DESIGN.md §10 for the name table).
type replicMetrics struct {
	created    *obs.Counter
	decayed    *obs.Counter
	advertSent *obs.Counter
	pushBytes  *obs.Counter
	nearestHit *obs.Counter
	hedgeFired *obs.Counter
}

func metricsFor(r *obs.Registry) *replicMetrics {
	return r.Memo("replic", func() any {
		return &replicMetrics{
			created:    r.Counter("replic.replicas.created"),
			decayed:    r.Counter("replic.replicas.decayed"),
			advertSent: r.Counter("replic.advert.sent"),
			pushBytes:  r.Counter("replic.push.bytes"),
			nearestHit: r.Counter("replic.route.nearest_hit"),
			hedgeFired: r.Counter("replic.route.hedge_fired"),
		}
	}).(*replicMetrics)
}
