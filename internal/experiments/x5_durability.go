package experiments

import (
	"fmt"
	"time"

	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// durabilitySize sizes X5: objects stored, fleet size, the horizon over
// which providers die, and the share of the fleet that dies.
// durabilitySizes is full scale, then tiny.
type durabilitySize struct {
	objects, providers int
	horizon            time.Duration
	dead               float64
}

var durabilitySizes = [2]durabilitySize{{20, 30, 6 * time.Hour, 0.5}, {3, 8, time.Hour, 0.5}}

// durabilityScheme is one redundancy scheme of X5: r full replicas, or
// with k > 0 Reed–Solomon coding into k data and m parity shards.
type durabilityScheme struct {
	name    string
	r, k, m int
}

// durabilitySchemes is the fixed scheme axis of the X5 matrix.
var durabilitySchemes = []durabilityScheme{
	{"replicate r=1", 1, 0, 0},
	{"replicate r=2", 2, 0, 0},
	{"replicate r=3", 3, 0, 0},
	{"erasure RS(4,6)", 0, 4, 2},
	{"erasure RS(4,8)", 0, 4, 4},
}

// overhead is the bytes the scheme stores per object byte.
func (sc durabilityScheme) overhead() float64 {
	if sc.k > 0 {
		return float64(sc.k+sc.m) / float64(sc.k)
	}
	return float64(sc.r)
}

// durabilityTable renders X5 with each scheme's storage overhead beside
// its survival figures.
func durabilityTable(seed int64, s durabilitySize) *Table {
	m := durabilityMatrix(seed, s)
	t := &Table{Headers: []string{"Scheme", "Overhead", "Survival (no repair)", "Survival (repair/30m)", "Repair Traffic (KB)"}}
	for r, sc := range durabilitySchemes {
		t.Add(sc.name,
			fmt.Sprintf("%.1fx", sc.overhead()),
			fmt.Sprintf("%.0f%%", m.Vals[r][0]),
			fmt.Sprintf("%.0f%%", m.Vals[r][1]),
			fmt.Sprintf("%.0f", m.Vals[r][2]))
	}
	return t
}

// durabilityMatrix is experiment X5: objects are stored under several
// redundancy schemes on a provider fleet whose members die permanently at
// random times; with and without a periodic audit-and-repair loop, we
// measure how many objects remain recoverable after the horizon, and the
// repair traffic paid. §3.3: "These design decisions involve inherent
// trade-offs among durability, availability, consistency, and performance
// of decentralized storage." One seed gives, per scheme, the survival
// percentages without and with repair plus the repair traffic (KB).
func durabilityMatrix(seed int64, s durabilitySize) Matrix {
	mx := Matrix{Cols: []string{"Survival (no repair)", "Survival (repair/30m)", "Repair Traffic (KB)"}}
	for _, sc := range durabilitySchemes {
		noRepair, _ := durabilityRun(seed, sc, s, 0)
		withRepair, traffic := durabilityRun(seed, sc, s, 30*time.Minute)
		mx.add(sc.name, noRepair*100, withRepair*100, traffic/1024)
	}
	return mx
}

func durabilityRun(seed int64, scheme durabilityScheme, s durabilitySize, repairEvery time.Duration) (survival float64, repairBytes float64) {
	objects, providers, horizon := s.objects, s.providers, s.horizon
	nw := simnet.New(seed)
	fleet := newStorageFleet(nw, providers, 10*time.Second, resil.Config{}, storage.ProviderConfig{Capacity: 1 << 30})
	client, provs, pool := fleet.client, fleet.provs, fleet.pool

	// Upload all objects.
	objs := make([]*storedObject, objects)
	for i := range objs {
		data := make([]byte, 2048)
		nw.Rand().Read(data)
		o := &storedObject{data: data}
		objs[i] = o
		done := func(m *storage.Manifest, pl *storage.Placement, err error) { o.m, o.pl = m, pl }
		if scheme.k > 0 {
			client.UploadErasure(data, scheme.k, scheme.m, pool, done)
		} else {
			client.Upload(data, 0, pool, scheme.r, done)
		}
	}
	nw.Run(nw.Now() + time.Minute)

	// Schedule permanent deaths uniformly over the horizon.
	dead := int(s.dead * float64(providers))
	perm := nw.Rand().Perm(providers)
	start := nw.Now()
	for k := 0; k < dead; k++ {
		victim := provs[perm[k]]
		at := start + time.Duration(nw.Rand().Int63n(int64(horizon)))
		nw.Schedule(at, func() { victim.Node().Crash() })
	}

	// Optional repair loop: audit, drop dead holders, repair.
	baselineBytes := int64(0)
	if repairEvery > 0 {
		var repairLoop func()
		repairLoop = func() {
			for _, o := range objs {
				o := o
				if o.m == nil {
					continue
				}
				client.Audit(o.m, o.pl, 5*time.Second, func(r *storage.AuditReport) {
					for _, res := range r.Results {
						if !res.OK {
							o.pl.Remove(o.m.Chunks[res.ChunkIndex], res.Holder)
						}
					}
					client.Repair(o.m, o.pl, pool, func(int, error) {})
				})
			}
			if nw.Now() < start+horizon {
				nw.After(repairEvery, repairLoop)
			}
		}
		nw.After(repairEvery, repairLoop)
		baselineBytes = nw.Trace().BytesSent
	}
	nw.Run(start + horizon)

	repairBytes = float64(nw.Trace().BytesSent - baselineBytes)
	// Final check: is each object still downloadable?
	alive := 0
	pending := 0
	for _, o := range objs {
		if o.m == nil {
			continue
		}
		pending++
		client.Download(o.m, o.pl, func(data []byte, err error) {
			pending--
			if err == nil {
				alive++
			}
		})
	}
	nw.Run(nw.Now() + 5*time.Minute)
	return float64(alive) / float64(objects), repairBytes
}
