package experiments

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/simnet"
	"repro/internal/webapp"
)

// HostlessWeb is experiment X7: the same website is served (a) by a
// single origin server (client-server baseline) and (b) as a hostless
// signed bundle seeded by its visitors (§3.4). Visitors arrive throughout
// the run; halfway through, the publisher (origin server / site author)
// dies. We measure visit success before and after the death and how the
// serving load distributes. Visitors sit on home-broadband links, making
// this also a §5.2 "quality vs quantity" test: device-grade uplinks can
// still carry the site because the load spreads.
func HostlessWeb(seed int64, visitors int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("X7: website availability with publisher death at T/2 (%d visitors over 2h)", visitors),
		Headers: []string{"Architecture", "Visits OK (publisher alive)", "Visits OK (publisher dead)", "Publisher Share of Bytes Served"},
	}
	m := hostlessMatrix(seed, visitors)
	for r, name := range m.Rows {
		t.Add(name,
			fmt.Sprintf("%.0f%%", m.Vals[r][0]),
			fmt.Sprintf("%.0f%%", m.Vals[r][1]),
			fmt.Sprintf("%.0f%%", m.Vals[r][2]))
	}
	return t
}

// hostlessMatrix is the numeric core of X7: one seed, visit-success and
// load-share percentages for both architectures.
func hostlessMatrix(seed int64, visitors int) Matrix {
	mx := NewMatrix(
		[]string{"client-server (single origin)", "hostless (visitor-seeded)"},
		[]string{"Visits OK (publisher alive)", "Visits OK (publisher dead)", "Publisher Share of Bytes Served"})
	beforeCS, afterCS, shareCS := clientServerRun(seed, visitors)
	mx.Vals[0][0], mx.Vals[0][1], mx.Vals[0][2] = beforeCS*100, afterCS*100, shareCS*100
	beforeHL, afterHL, shareHL := hostlessRun(seed, visitors)
	mx.Vals[1][0], mx.Vals[1][1], mx.Vals[1][2] = beforeHL*100, afterHL*100, shareHL*100
	return mx
}

// HostlessWebMulti is X7 aggregated over a batch of seeds on `workers`
// parallel trial runners (0 = GOMAXPROCS).
func HostlessWebMulti(seeds []int64, workers, visitors int) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return hostlessMatrix(seed, visitors)
	})
	return agg.Table(
		fmt.Sprintf("X7: website availability with publisher death at T/2 (%d visitors over 2h)", visitors),
		"Architecture", "%.0f%%")
}

const originMethod = "origin.get"

// clientServerRun serves the site from one origin over simnet RPC.
func clientServerRun(seed int64, visitors int) (before, after, originShare float64) {
	nw := simnet.New(seed)
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

	okBefore, okAfter, nBefore, nAfter := 0, 0, 0, 0
	half := time.Hour
	horizon := 2 * time.Hour
	for i := 0; i < visitors; i++ {
		at := time.Duration(nw.Rand().Int63n(int64(horizon)))
		visitor := simnet.NewRPCNode(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()))
		nw.Schedule(at, func() {
			early := nw.Now() < half
			visitor.Call(origin.Node().ID(), originMethod, nil, 64, 30*time.Second, func(resp any, err error) {
				ok := err == nil && resp != nil
				if early {
					nBefore++
					if ok {
						okBefore++
					}
				} else {
					nAfter++
					if ok {
						okAfter++
					}
				}
			})
		})
	}
	nw.Schedule(half, func() { origin.Node().Crash() })
	nw.Run(horizon + time.Minute)
	return ratio(okBefore, nBefore), ratio(okAfter, nAfter), 1.0 // origin serves 100% of bytes
}

// hostlessRun serves the site as a webapp bundle over DHT + tracker with
// visitor seeding.
func hostlessRun(seed int64, visitors int) (before, after, authorShare float64) {
	nw := simnet.New(seed)
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

	okBefore, okAfter, nBefore, nAfter := 0, 0, 0, 0
	start := nw.Now()
	half := start + time.Hour
	horizon := start + 2*time.Hour
	for i := 0; i < visitors; i++ {
		at := start + time.Duration(nw.Rand().Int63n(int64(2*time.Hour)))
		p := peers[i]
		nw.Schedule(at, func() {
			early := nw.Now() < half
			p.Visit(siteAddr, func(files map[string][]byte, err error) {
				ok := err == nil && len(files) > 0
				if early {
					nBefore++
					if ok {
						okBefore++
					}
				} else {
					nAfter++
					if ok {
						okAfter++
					}
				}
			})
		})
	}
	nw.Schedule(half, func() { author.Node().Crash() })
	nw.Run(horizon + 30*time.Minute)

	totalServes := author.BlobServes
	for _, p := range peers {
		totalServes += p.BlobServes
	}
	return ratio(okBefore, nBefore), ratio(okAfter, nAfter), ratio(author.BlobServes, totalServes)
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
