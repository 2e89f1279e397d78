package experiments

import (
	"fmt"
	"time"

	"repro/internal/dht"
	"repro/internal/simnet"
)

// dhtSize sizes X11: network size and lookups measured per run.
// dhtSizes is full scale, then tiny.
type dhtSize struct{ peers, lookups int }

var dhtSizes = [2]dhtSize{{40, 40}, {8, 6}}

// dhtTrials is how many runs each row of the single-seed X11 table
// averages; the multi-seed core runs one per seed.
const dhtTrials = 3

// dhtProfiles and dhtVariants are the two axes of X11's rows.
var (
	dhtProfiles = []struct {
		name string
		p    simnet.LinkProfile
	}{
		{"datacenter", simnet.DatacenterProfile()},
		{"home broadband", simnet.HomeBroadbandProfile()},
		{"mobile 3G", simnet.MobileProfile()},
	}
	dhtVariants = []struct {
		label            string
		churn, republish bool
	}{
		{"none", false, true},
		{"churn + republish", true, true},
		{"churn, no republish", true, false},
	}
)

// dhtQualityMatrix is experiment X11: the same Kademlia network is run on
// datacenter-grade, home-broadband, and mobile attachments, with and
// without churn, and we measure lookup success and latency. This makes
// §5.2's "Grappling with infrastructure quality vs quantity" concrete:
// "the quality of this infrastructure is much poorer than what a typical
// datacenter provides. As such, systems must be designed to cope with the
// intermittency, higher failure rates, and variable performance of
// user-device-based infrastructure." One seed gives a (success %, mean ms,
// p99 ms) triple per (attachment, churn-variant) row, each averaging
// `trials` runs at seeds seed + i·6151.
func dhtQualityMatrix(env Env, s dhtSize, trials int) Matrix {
	mx := Matrix{Cols: []string{"Lookup Success", "Mean Latency", "P99 Latency"}}
	for _, prof := range dhtProfiles {
		for _, v := range dhtVariants {
			var success, mean, p99 float64
			for _, o := range runTrials(env, strideSeeds(env.Seed, 6151, trials), 0, func(env Env) [3]float64 {
				su, m, p := dhtQualityRun(env, s.peers, s.lookups, prof.p, v.churn, v.republish)
				return [3]float64{su, m, p}
			}) {
				success += o[0]
				mean += o[1]
				p99 += o[2]
			}
			n := float64(trials)
			mx.add(prof.name+" / "+v.label, success/n*100, mean/n*1000, p99/n*1000)
		}
	}
	return mx
}

// dhtQualityTable renders X11 with attachment and churn in two label
// columns.
func dhtQualityTable(env Env, s dhtSize) *Table {
	m := dhtQualityMatrix(env, s, dhtTrials)
	t := &Table{Headers: []string{"Attachment", "Churn", "Lookup Success", "Mean Latency", "P99 Latency"}}
	for i, prof := range dhtProfiles {
		for j, v := range dhtVariants {
			c := m.Vals[i*len(dhtVariants)+j]
			t.Add(prof.name, v.label, fmt.Sprintf("%.0f%%", c[0]), fmt.Sprintf("%.0fms", c[1]), fmt.Sprintf("%.0fms", c[2]))
		}
	}
	return t
}

func dhtQualityRun(env Env, peerCount, lookups int, profile simnet.LinkProfile, churn, republish bool) (success, meanSec, p99Sec float64) {
	nw := env.Net()
	nw.SetDefaultProfile(profile)
	// K=4 keeps the replica set realistic relative to the 40-node network
	// (k=20 would put every value on half the network and hide churn).
	cfg := dht.Config{K: 4, RequestTimeout: 3 * time.Second, RepublishInterval: 5 * time.Minute}
	if !republish {
		cfg.RepublishInterval = 0
	}
	peers := growDHT(nw, peerCount, 200*time.Millisecond, sameDHT(cfg))
	nw.Run(time.Duration(peerCount) * 400 * time.Millisecond)

	// Publish values from a stable publisher (peer 0 stays up so republish
	// keeps working; the question is whether *readers* can find data).
	keys := putKeys(peers[0], lookups, "value-%d")
	nw.Run(nw.Now() + 2*time.Minute)

	if churn {
		// Device-grade reality (§5.2): temporary outages plus permanent
		// attrition — half the peers leave for good over the next hour.
		rng := nw.Rand()
		perm := rng.Perm(peerCount - 1)
		for k := 0; k < (peerCount-1)/2; k++ {
			victim := peers[1+perm[k]]
			nw.After(time.Duration(rng.Int63n(int64(time.Hour))), func() { victim.Node().Crash() })
		}
		for k := (peerCount - 1) / 2; k < peerCount-1; k++ {
			simnet.Churn{MTTF: 20 * time.Minute, MTTR: 10 * time.Minute}.Apply(peers[1+perm[k]].Node())
		}
		nw.Run(nw.Now() + 90*time.Minute) // let attrition and churn play out
	}

	var lat samples
	ok := 0
	rng := nw.Rand()
	for i := 0; i < lookups; i++ {
		// A random live reader looks up a random key; readers are
		// interactive users, so pick one that is currently up.
		reader := peers[1+rng.Intn(peerCount-1)]
		for tries := 0; !reader.Node().Up() && tries < peerCount; tries++ {
			reader = peers[1+rng.Intn(peerCount-1)]
		}
		if !reader.Node().Up() {
			continue
		}
		t0 := nw.Now()
		found := false
		var doneAt time.Duration
		reader.Get(keys[rng.Intn(len(keys))], func(v []byte, f bool) {
			found = f
			doneAt = reader.Node().Now()
		})
		nw.Run(nw.Now() + time.Minute)
		if found {
			ok++
			lat.add(float64(doneAt-t0) / float64(time.Second))
		}
	}
	return float64(ok) / float64(lookups), lat.mean(), lat.quantile(0.99)
}
