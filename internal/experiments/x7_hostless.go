package experiments

import (
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/simnet"
	"repro/internal/webapp"
)

// hostlessSizes is X7's visitor count: full scale, then tiny.
var hostlessSizes = [2]int{40, 5}

// hostlessMatrix is experiment X7: the same website is served (a) by a
// single origin server (client-server baseline) and (b) as a hostless
// signed bundle seeded by its visitors (§3.4). Visitors arrive throughout
// the run; halfway through, the publisher (origin server / site author)
// dies. We measure visit success before and after the death and how the
// serving load distributes. Visitors sit on home-broadband links, making
// this also a §5.2 "quality vs quantity" test: device-grade uplinks can
// still carry the site because the load spreads. One seed gives the
// visit-success and load-share percentages of both architectures.
func hostlessMatrix(env Env, visitors int) Matrix {
	mx := Matrix{Cols: []string{"Visits OK (publisher alive)", "Visits OK (publisher dead)", "Publisher Share of Bytes Served"}}
	before, after, share := clientServerRun(env, visitors)
	mx.add("client-server (single origin)", before*100, after*100, share*100)
	before, after, share = hostlessRun(env, visitors)
	mx.add("hostless (visitor-seeded)", before*100, after*100, share*100)
	return mx
}

const originMethod = "origin.get"

// clientServerRun serves the site from one origin over simnet RPC.
func clientServerRun(env Env, visitors int) (before, after, originShare float64) {
	nw := env.Net()
	origin := simnet.NewRPCNode(nw.AddNode()) // datacenter profile
	site := siteFiles()
	siteBytes := 0
	for _, d := range site {
		siteBytes += len(d)
	}
	served := 0
	origin.Serve(originMethod, func(from simnet.NodeID, req any) (any, int) {
		served++
		return site, siteBytes
	})

	var tally visitTally
	half := time.Hour
	horizon := 2 * time.Hour
	for i := 0; i < visitors; i++ {
		at := time.Duration(nw.Rand().Int63n(int64(horizon)))
		visitor := simnet.NewRPCNode(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()))
		nw.Schedule(at, func() {
			done := tally.done(nw.Now() >= half)
			visitor.Call(origin.Node().ID(), originMethod, nil, 64, 30*time.Second, func(resp any, err error) {
				done(err == nil && resp != nil)
			})
		})
	}
	nw.Schedule(half, func() { origin.Node().Crash() })
	nw.Run(horizon + time.Minute)
	before, after = tally.shares()
	return before, after, 1.0 // origin serves 100% of bytes
}

// hostlessRun serves the site as a webapp bundle over DHT + tracker with
// visitor seeding.
func hostlessRun(env Env, visitors int) (before, after, authorShare float64) {
	nw := env.Net()
	// The author lives on a home-broadband link, like any user.
	home := simnet.HomeBroadbandProfile()
	web := newWebSwarm(nw, home, 30*time.Second)
	author := web.author
	owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		panic(err)
	}

	// Visitors' DHT peers join first so the manifest replicates beyond the
	// author's own node at publish time (otherwise the author's death would
	// take the manifest with it).
	peers := web.join(visitors, home, dht.Config{}, webapp.PeerConfig{}, 0)
	nw.Run(2 * time.Minute) // settle DHT routing tables

	siteAddr := web.publish(owner, siteFiles())

	var tally visitTally
	start := nw.Now()
	half := start + time.Hour
	horizon := start + 2*time.Hour
	for i := 0; i < visitors; i++ {
		at := start + time.Duration(nw.Rand().Int63n(int64(2*time.Hour)))
		p := peers[i]
		nw.Schedule(at, func() {
			done := tally.done(nw.Now() >= half)
			p.Visit(siteAddr, func(files map[string][]byte, err error) { done(err == nil && len(files) > 0) })
		})
	}
	nw.Schedule(half, func() { author.Node().Crash() })
	nw.Run(horizon + 30*time.Minute)

	totalServes := author.BlobServes
	for _, p := range peers {
		totalServes += p.BlobServes
	}
	before, after = tally.shares()
	return before, after, ratio(author.BlobServes, totalServes)
}

// visitTally counts completed visits and their successes, split by
// whether a visit was launched before the publisher died ([0]) or after.
type visitTally struct{ ok, n [2]int }

// done returns the completion callback of a visit launched now.
func (v *visitTally) done(afterDeath bool) func(ok bool) {
	i := 0
	if afterDeath {
		i = 1
	}
	return func(ok bool) {
		v.n[i]++
		if ok {
			v.ok[i]++
		}
	}
}

// shares returns the success share of the visits on each side of the
// death.
func (v *visitTally) shares() (before, after float64) {
	return ratio(v.ok[0], v.n[0]), ratio(v.ok[1], v.n[1])
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func siteFiles() map[string][]byte {
	files := map[string][]byte{
		"index.html": []byte("<html><body><h1>Overthrowing Internet Feudalism</h1></body></html>"),
		"app.js":     make([]byte, 4096),
		"style.css":  make([]byte, 1024),
	}
	return files
}
