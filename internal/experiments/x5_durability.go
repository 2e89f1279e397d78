package experiments

import (
	"fmt"
	"time"

	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// StorageDurability is experiment X5: objects are stored under several
// redundancy schemes on a provider fleet whose members die permanently at
// random times; with and without a periodic audit-and-repair loop, we
// measure how many objects remain recoverable after the horizon, and the
// repair traffic paid. §3.3: "These design decisions involve inherent
// trade-offs among durability, availability, consistency, and performance
// of decentralized storage."
type durabilityScheme struct {
	name     string
	overhead float64
	upload   func(c *storage.Client, data []byte, pool []storage.ProviderRef, done func(*storage.Manifest, *storage.Placement, error))
}

// durabilitySchemes is the fixed scheme axis of the X5 matrix.
func durabilitySchemes() []durabilityScheme {
	return []durabilityScheme{
		{"replicate r=1", 1, func(c *storage.Client, d []byte, p []storage.ProviderRef, done func(*storage.Manifest, *storage.Placement, error)) {
			c.Upload(d, 0, p, 1, done)
		}},
		{"replicate r=2", 2, func(c *storage.Client, d []byte, p []storage.ProviderRef, done func(*storage.Manifest, *storage.Placement, error)) {
			c.Upload(d, 0, p, 2, done)
		}},
		{"replicate r=3", 3, func(c *storage.Client, d []byte, p []storage.ProviderRef, done func(*storage.Manifest, *storage.Placement, error)) {
			c.Upload(d, 0, p, 3, done)
		}},
		{"erasure RS(4,6)", 1.5, func(c *storage.Client, d []byte, p []storage.ProviderRef, done func(*storage.Manifest, *storage.Placement, error)) {
			c.UploadErasure(d, 4, 2, p, done)
		}},
		{"erasure RS(4,8)", 2, func(c *storage.Client, d []byte, p []storage.ProviderRef, done func(*storage.Manifest, *storage.Placement, error)) {
			c.UploadErasure(d, 4, 4, p, done)
		}},
	}
}

// StorageDurability runs the durability × repair matrix and returns the
// result table.
func StorageDurability(seed int64, objects, providers int, horizon time.Duration, deadFraction float64) *Table {
	schemes := durabilitySchemes()
	m := durabilityMatrix(seed, objects, providers, horizon, deadFraction)
	t := &Table{
		Title: fmt.Sprintf("X5: object survival after %v with %.0f%% of %d providers dying permanently (%d objects)",
			horizon, deadFraction*100, providers, objects),
		Headers: []string{"Scheme", "Overhead", "Survival (no repair)", "Survival (repair/30m)", "Repair Traffic (KB)"},
	}
	for r, s := range schemes {
		t.Add(s.name,
			fmt.Sprintf("%.1fx", s.overhead),
			fmt.Sprintf("%.0f%%", m.Vals[r][0]),
			fmt.Sprintf("%.0f%%", m.Vals[r][1]),
			fmt.Sprintf("%.0f", m.Vals[r][2]))
	}
	return t
}

// durabilityMatrix is the numeric core of X5: one seed, per scheme the
// survival percentages without and with repair plus the repair traffic.
func durabilityMatrix(seed int64, objects, providers int, horizon time.Duration, deadFraction float64) Matrix {
	schemes := durabilitySchemes()
	rows := make([]string, len(schemes))
	for i, s := range schemes {
		rows[i] = s.name
	}
	mx := NewMatrix(rows, []string{"Survival (no repair)", "Survival (repair/30m)", "Repair Traffic (KB)"})
	for r, s := range schemes {
		noRepair, _ := durabilityRun(seed, s, objects, providers, horizon, deadFraction, 0)
		withRepair, traffic := durabilityRun(seed, s, objects, providers, horizon, deadFraction, 30*time.Minute)
		mx.Vals[r][0] = noRepair * 100
		mx.Vals[r][1] = withRepair * 100
		mx.Vals[r][2] = traffic / 1024
	}
	return mx
}

// StorageDurabilityMulti is X5 aggregated over a batch of seeds on
// `workers` parallel trial runners (0 = GOMAXPROCS).
func StorageDurabilityMulti(seeds []int64, workers, objects, providers int, horizon time.Duration, deadFraction float64) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return durabilityMatrix(seed, objects, providers, horizon, deadFraction)
	})
	return agg.Table(
		fmt.Sprintf("X5: object survival after %v with %.0f%% of %d providers dying permanently (%d objects)",
			horizon, deadFraction*100, providers, objects),
		"Scheme", "%.0f%%", "%.0f%%", "%.0f")
}

func durabilityRun(seed int64, scheme durabilityScheme, objects, providers int, horizon time.Duration, deadFraction float64, repairEvery time.Duration) (survival float64, repairBytes float64) {
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
		scheme.upload(client, data, pool, func(m *storage.Manifest, pl *storage.Placement, err error) {
			o.m, o.pl = m, pl
		})
	}
	nw.Run(nw.Now() + time.Minute)

	// Schedule permanent deaths uniformly over the horizon.
	dead := int(deadFraction * float64(providers))
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
