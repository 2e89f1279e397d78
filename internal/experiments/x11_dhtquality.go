package experiments

import (
	"fmt"
	"time"

	"repro/internal/dht"
	"repro/internal/simnet"
)

// DHTQuality is experiment X11: the same Kademlia network is run on
// datacenter-grade, home-broadband, and mobile attachments, with and
// without churn, and we measure lookup success and latency. This makes
// §5.2's "Grappling with infrastructure quality vs quantity" concrete:
// "the quality of this infrastructure is much poorer than what a typical
// datacenter provides. As such, systems must be designed to cope with the
// intermittency, higher failure rates, and variable performance of
// user-device-based infrastructure."
func DHTQuality(seed int64, peers, lookups int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("X11: DHT lookups on device-grade vs datacenter infrastructure (%d peers, %d lookups)", peers, lookups),
		Headers: []string{"Attachment", "Churn", "Lookup Success", "Mean Latency", "P99 Latency"},
	}
	profiles, variants := dhtGrid()
	const trials = 3
	for _, prof := range profiles {
		for _, v := range variants {
			prof, v := prof, v
			var success, mean, p99 float64
			for _, o := range simnet.Trials(strideSeeds(seed, 6151, trials), 0, func(s int64) dhtOutcome {
				su, m, p := dhtQualityRun(s, peers, lookups, prof.p, v.churn, v.republish)
				return dhtOutcome{su, m, p}
			}) {
				success += o.success
				mean += o.mean
				p99 += o.p99
			}
			t.Add(prof.name, v.label,
				fmt.Sprintf("%.0f%%", success/trials*100),
				fmt.Sprintf("%.0fms", mean/trials*1000),
				fmt.Sprintf("%.0fms", p99/trials*1000))
		}
	}
	return t
}

type dhtOutcome struct{ success, mean, p99 float64 }

// dhtProfiles and dhtVariants define the X11 grid shared by the single-seed
// and multi-seed renderers.
func dhtGrid() (profiles []struct {
	name string
	p    simnet.LinkProfile
}, variants []struct {
	label     string
	churn     bool
	republish bool
}) {
	profiles = []struct {
		name string
		p    simnet.LinkProfile
	}{
		{"datacenter", simnet.DatacenterProfile()},
		{"home broadband", simnet.HomeBroadbandProfile()},
		{"mobile 3G", simnet.MobileProfile()},
	}
	variants = []struct {
		label     string
		churn     bool
		republish bool
	}{
		{"none", false, true},
		{"churn + republish", true, true},
		{"churn, no republish", true, false},
	}
	return
}

// dhtQualityMatrix is the numeric core of X11: one seed, one (success %,
// mean ms, p99 ms) triple per (attachment, churn-variant) row.
func dhtQualityMatrix(seed int64, peers, lookups int) Matrix {
	profiles, variants := dhtGrid()
	var rows []string
	for _, prof := range profiles {
		for _, v := range variants {
			rows = append(rows, prof.name+" / "+v.label)
		}
	}
	mx := NewMatrix(rows, []string{"Lookup Success", "Mean Latency", "P99 Latency"})
	r := 0
	for _, prof := range profiles {
		for _, v := range variants {
			s, m, p := dhtQualityRun(seed, peers, lookups, prof.p, v.churn, v.republish)
			mx.Vals[r][0] = s * 100
			mx.Vals[r][1] = m * 1000
			mx.Vals[r][2] = p * 1000
			r++
		}
	}
	return mx
}

// DHTQualityMulti is X11 aggregated over a batch of seeds (one run per
// seed) on `workers` parallel trial runners (0 = GOMAXPROCS).
func DHTQualityMulti(seeds []int64, workers, peers, lookups int) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return dhtQualityMatrix(seed, peers, lookups)
	})
	return agg.Table(
		fmt.Sprintf("X11: DHT lookups on device-grade vs datacenter infrastructure (%d peers, %d lookups)", peers, lookups),
		"Attachment / Churn", "%.0f%%", "%.0fms", "%.0fms")
}

func dhtQualityRun(seed int64, peerCount, lookups int, profile simnet.LinkProfile, churn, republish bool) (success, meanSec, p99Sec float64) {
	nw := simnet.New(seed)
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
			doneAt = nw.Now()
		})
		nw.Run(nw.Now() + time.Minute)
		if found {
			ok++
			lat.add(float64(doneAt-t0) / float64(time.Second))
		}
	}
	return float64(ok) / float64(lookups), lat.mean(), lat.quantile(0.99)
}
