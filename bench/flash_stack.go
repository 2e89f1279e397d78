package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// flash_stack: X20's protected replic arm scaled up. Clients fetch
// Zipf-popular objects from home-uplink providers through a directory, with
// resil, overload and replic all enabled; every segment of the request
// schedule carries a flash crowd on one of the least popular objects. The
// op is one client Get.

const (
	flashProviders      = 64
	flashClients        = 2000
	flashObjects        = 256
	flashProvidersShort = 8
	flashClientsShort   = 40
	flashObjectsShort   = 64
	flashRegions        = 4
	flashObjBytes       = 64 << 10
	flashFloorK         = 2
	// flashSegmentsPerSecond sizes the measured op list: schedule segments
	// per budgeted second. A segment is flashSegment of virtual time at a
	// mean of flashRatePerProvider requests per second per provider.
	flashSegmentsPerSecond = 2.8
	flashWarmSegments      = 8
	flashSegment           = 30 * time.Minute
	flashDay               = 15 * time.Minute
	// At 0.2 requests per second per provider, two or three seeds in ten
	// settle after the first flash crowd into a degraded state that lasts the
	// run (0.83 of the non-flash Gets in time instead of 0.95, more replicas
	// held, a fifth more messages per op). At 0.15 every seed tried stays in
	// the one mode, and a benchmark needs one mode.
	flashRatePerProvider = 0.15
	flashSLA             = 8 * time.Second
	flashTimeout         = 30 * time.Second
	// flashGrace lets the requests in flight at the end finish or time out.
	flashGrace = 90 * time.Second
	// flashProbes is how often per segment the replica floor is checked.
	flashProbes = 8
)

var flashStackWorkload = workloadDef{
	name:  "flash_stack",
	why:   "the only workload where resil, overload, replic and the uplink queue model do the work and where failed requests are part of the result; rpc_echo is its bypass",
	build: buildFlashStack,
}

type flashSim struct {
	nw      *simnet.Network
	st      *opStats
	seed    int64
	short   bool
	dir     *replic.Directory
	provs   []*replic.Provider
	clients []*replic.Client
	objs    []cryptoutil.Hash
	regions workload.RegionSet
	// reqs is the current phase's schedule, times relative to base; segment
	// counts every segment generated so far, so each gets its own stream.
	reqs    []workload.Request
	segment int
	next    int
	base    time.Duration
	span    time.Duration
	// floorBreaches counts probes that found an object under the floor.
	floorBreaches int
	timeouts      int
	// served0 and origin0 are the providers' payload ledgers when the
	// measured phase started.
	served0, origin0 int64
}

// flashOvCfg, flashResil and flashReplicCfg are X20's configurations.
func flashOvCfg() overload.Config {
	return overload.Config{
		Enabled:        true,
		QueueLen:       32,
		Target:         2 * time.Second,
		SLO:            4 * time.Second,
		MinLimit:       1,
		MaxLimit:       8,
		RetryAfterBase: time.Second,
	}
}

func flashResil() resil.Config {
	cfg := resil.Defaults()
	cfg.Classify = overload.Classify
	return cfg
}

func flashReplicCfg(providers int) replic.Config {
	cfg := replic.Defaults()
	cfg.FloorK = flashFloorK
	if cfg.Cap > providers {
		cfg.Cap = providers
	}
	cfg.Resilience = flashResil()
	cfg.Overload = flashOvCfg()
	return cfg
}

func buildFlashStack(c runConfig, st *opStats, tr *tracer) sim {
	nProv, nCli, nObj := flashProviders, flashClients, flashObjects
	if c.short {
		nProv, nCli, nObj = flashProvidersShort, flashClientsShort, flashObjectsShort
	}
	s := &flashSim{
		nw:      simnet.New(c.seed),
		st:      st,
		seed:    c.seed,
		short:   c.short,
		regions: workload.DefaultRegions(flashRegions, flashDay),
	}
	cfg := flashReplicCfg(nProv)
	s.nw.EnableQueueMetrics()
	var dirNode *simnet.Node
	clientNodes := make([]*simnet.Node, nCli)
	provNodes := make([]*simnet.Node, nProv)
	ids := make([]simnet.NodeID, 0, nCli+nProv)
	tr.do("simnet.AddNode", 1+nCli+nProv, func() {
		dirNode = s.nw.AddNode()
		for i := range clientNodes {
			clientNodes[i] = s.nw.AddNode()
			ids = append(ids, clientNodes[i].ID())
		}
		for i := range provNodes {
			provNodes[i] = s.nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
			ids = append(ids, provNodes[i].ID())
		}
	})
	// Clients come first so that client i keeps the region the schedule
	// generator gives it; providers follow in the same round-robin.
	regionOf := make(map[simnet.NodeID]int, len(ids))
	tr.do("workload.RegionSet.Apply", 1, func() {
		s.regions.Apply(s.nw, ids)
		for i, id := range ids {
			regionOf[id] = s.regions.Assign(i)
		}
	})
	tr.do("replic.NewDirectory+NewProvider+NewClient", 1+nProv+nCli, func() {
		s.dir = replic.NewDirectoryWith(dirNode, flashFloorK, cfg.Overload)
		provIDs := ids[nCli:]
		for _, n := range provNodes {
			p := replic.NewProvider(n, cfg, dirNode.ID(), flashRegions, regionOf)
			p.SetPeers(provIDs)
			s.provs = append(s.provs, p)
		}
		for _, n := range clientNodes {
			s.clients = append(s.clients, replic.NewClient(n, cfg, dirNode.ID(), regionOf[n.ID()], regionOf, s.regions.Extra))
		}
	})
	// The catalog: object o is pinned on provider o mod P, with FloorK-1
	// static replicas on the providers that follow.
	tr.do("replic.Provider.Put", nObj*flashFloorK, func() {
		s.objs = make([]cryptoutil.Hash, nObj)
		for o := range s.objs {
			payload := make([]byte, flashObjBytes)
			for i := range payload {
				payload[i] = byte(o*31 + i)
			}
			s.objs[o] = cryptoutil.SumHash(payload)
			for j := 0; j < flashFloorK; j++ {
				s.provs[(o+j)%nProv].Put(s.objs[o], payload, j == 0)
			}
		}
		for _, p := range s.provs {
			p.Start()
		}
	})
	tr.do("simnet.Run", 1, func() { s.nw.Run(s.nw.Now() + time.Minute) }) // announces settle

	s.generate(flashWarmSegments, tr)
	st.reset(s.ops())
	s.launch()
	tr.do("simnet.Run", 1, func() { s.advance(1) })
	s.generate(c.quota(flashSegmentsPerSecond, 1), tr)
	return s
}

// generate pre-generates the next phase's request schedule: segments of
// Zipf-popular, diurnal demand, each with a 1000x flash crowd on one of the
// sixteen least popular objects.
func (s *flashSim) generate(segments int, tr *tracer) {
	s.reqs = s.reqs[:0]
	rate := flashRatePerProvider * float64(len(s.provs))
	for i := 0; i < segments; i++ {
		cfg := workload.StreamConfig{
			Seed:    s.seed,
			Salt:    workload.SaltStream + uint64(s.segment),
			Clients: len(s.clients),
			Horizon: flashSegment,
			Pop:     workload.NewZipf(len(s.objs), 1.1),
			Rate:    workload.NewDiurnal(workload.DiurnalConfig{Mean: rate, Amp: 0.6, Floor: 0.5, Period: flashDay}),
			Flash: workload.Flash{
				Object: len(s.objs) - 1 - s.segment%16,
				Start:  10 * time.Minute, Ramp: 2 * time.Minute, Peak: 1000, Decay: 3 * time.Minute,
			},
			Regions: &s.regions,
		}
		s.segment++
		var seg []workload.Request
		tr.do("workload.Generate", 1, func() { seg = workload.Generate(cfg) })
		off := time.Duration(i) * flashSegment
		for _, r := range seg {
			r.At += off
			s.reqs = append(s.reqs, r)
		}
	}
	s.span = time.Duration(segments)*flashSegment + flashGrace
	s.next = 0
	s.timeouts = 0
}

func (s *flashSim) net() *simnet.Network { return s.nw }
func (s *flashSim) nodes() int           { return s.nw.NumNodes() }
func (s *flashSim) ops() int             { return len(s.reqs) }

func (s *flashSim) launch() {
	s.base = s.nw.Now()
	s.served0, s.origin0 = s.served()
	s.nw.ScheduleCall(s.base+s.reqs[0].At, flashNextGet, s)
	probes := int(s.span/flashSegment) * flashProbes
	for i := 1; i <= probes; i++ {
		s.nw.Schedule(s.base+s.span*time.Duration(i)/time.Duration(probes), s.probeFloor)
	}
}

// probeFloor checks that no object has fewer registered holders than the
// replica floor.
func (s *flashSim) probeFloor() {
	for _, o := range s.objs {
		if s.dir.NumHolders(o) < flashFloorK {
			s.floorBreaches++
		}
	}
}

// flashNextGet launches the request that is due and schedules itself for
// the next one: an open loop, so a stalled provider does not slow arrivals.
func flashNextGet(arg any) {
	s := arg.(*flashSim)
	id := s.next
	r := s.reqs[id]
	c := s.clients[r.Client]
	due := s.base + r.At
	c.Get(s.objs[r.Object], flashTimeout, func(data []byte, err error) {
		lat := c.Node().Now() - due
		if errors.Is(err, simnet.ErrRPCTimeout) {
			s.timeouts++
		}
		s.st.resolve(id, err == nil && len(data) == flashObjBytes && lat <= flashSLA, lat)
	})
	if s.next++; s.next < len(s.reqs) {
		s.nw.ScheduleCall(s.base+s.reqs[s.next].At, flashNextGet, s)
	}
}

func (s *flashSim) advance(frac float64) {
	s.nw.Run(s.base + time.Duration(frac*float64(s.span)))
}

func (s *flashSim) check() error {
	// The band is for the full-size world; a test-scale one is not sized.
	if share := float64(s.st.ok) / float64(s.st.attempted); !s.short && (share < 0.6 || share > 0.95) {
		return fmt.Errorf("flash_stack: %.4f of Gets were answered within the SLA; the workload is sized for [0.6, 0.95]", share)
	}
	if s.floorBreaches != 0 {
		return fmt.Errorf("flash_stack: %d probes found an object with fewer than %d holders", s.floorBreaches, flashFloorK)
	}
	// Provider maintenance never stops, so adverts may be on the wire.
	return conserved(s.nw, int64(s.nw.NumNodes()))
}

func (s *flashSim) layer(m metricSet, r *result, fix metricSet) {
	m["rpc.timeout_share"] = ratio(float64(s.timeouts), float64(s.st.attempted))
	m["workload.requests"] = float64(len(s.reqs))
	m["replic.route.nearest_hit_share"] = ratio(r.counterDelta("replic.route.nearest_hit"), float64(s.st.attempted))
	served, origin := s.served()
	m["replic.origin.byte_share"] = ratio(float64(origin-s.origin0), float64(served-s.served0))
	// The public snapshot carries p50, p90 and p99 only; the registry gives
	// any quantile, over the whole run rather than the measured phase.
	m["overload.queue.wait_p95_s"] = s.nw.Obs().Histogram("overload.queue.wait_s").Quantile(0.95)
}

// served totals the providers' payload ledgers.
func (s *flashSim) served() (served, origin int64) {
	for _, p := range s.provs {
		served += p.BytesServed
		origin += p.OriginBytes
	}
	return served, origin
}
