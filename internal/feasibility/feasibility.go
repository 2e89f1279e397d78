// Package feasibility implements the paper's §4 "Infrastructure
// Feasibility" back-of-the-envelope model: it compares the estimated
// capacity of global cloud infrastructure with the currently-unproductive
// capacity of user devices across three resources — bandwidth, compute,
// and storage — and regenerates Table 3 from the paper's published
// constants. Every constant is a parameter, so sensitivity sweeps can
// probe how robust the "there appears to be sufficient capacity"
// conclusion is.
package feasibility

import "fmt"

// Capacity is an absolute resource estimate.
type Capacity struct {
	// BandwidthTbps is aggregate upstream bandwidth in terabits/second.
	BandwidthTbps float64
	// Cores is the number of server-equivalent cores.
	Cores float64
	// StorageEB is storage in exabytes.
	StorageEB float64
}

// String formats the capacity in the paper's Table 3 units.
func (c Capacity) String() string {
	return fmt.Sprintf("%.0f Tbps / %.0f M cores / %.0f EB",
		c.BandwidthTbps, c.Cores/1e6, c.StorageEB)
}

// CloudParams parameterizes the cloud-side estimate. The paper starts from
// Google (no public data; reports suggest ~1 M servers, ~10 EB a few years
// prior, extrapolated to 100 M cores and 20 EB "today"), then scales by
// Google's share of Internet traffic (Google claims a quarter).
type CloudParams struct {
	// ProviderServers is the reference provider's server count.
	ProviderServers float64
	// CoresPerServer extrapolates servers to cores.
	CoresPerServer float64
	// ProviderStorageEB is the reference provider's storage.
	ProviderStorageEB float64
	// InternetTrafficTbps is total Internet traffic.
	InternetTrafficTbps float64
	// ProviderTrafficShare is the reference provider's share of traffic;
	// the inverse is the scale-up factor to "all cloud providers".
	ProviderTrafficShare float64
}

// PaperCloud returns the constants the paper uses in §4.
func PaperCloud() CloudParams {
	return CloudParams{
		ProviderServers:      1e6,
		CoresPerServer:       100,
		ProviderStorageEB:    20,
		InternetTrafficTbps:  200,
		ProviderTrafficShare: 0.25,
	}
}

// Estimate computes the cloud capacity.
func (p CloudParams) Estimate() Capacity {
	scale := 1.0
	if p.ProviderTrafficShare > 0 {
		scale = 1 / p.ProviderTrafficShare
	}
	providerBandwidth := p.InternetTrafficTbps * p.ProviderTrafficShare
	return Capacity{
		BandwidthTbps: providerBandwidth * scale,
		Cores:         p.ProviderServers * p.CoresPerServer * scale,
		StorageEB:     p.ProviderStorageEB * scale,
	}
}

// DeviceClass describes one population of user devices.
type DeviceClass struct {
	Name string
	// Count is the worldwide population.
	Count float64
	// UnusedCores is the spare cores per device.
	UnusedCores float64
	// FreeStorageGB is the spare storage per device.
	FreeStorageGB float64
	// UpstreamMbps is the device's upstream link.
	UpstreamMbps float64
	// ComputeUsable is false for battery-constrained devices, which the
	// paper excludes from the compute pool.
	ComputeUsable bool
}

// DeviceParams parameterizes the device-side estimate.
type DeviceParams struct {
	Classes []DeviceClass
	// ComputeDiscount divides raw device cores to get server-equivalent
	// cores (the paper uses 8: weaker processors plus power management).
	ComputeDiscount float64
}

// PaperDevices returns the §4 device populations: 2 B PCs (2 spare cores,
// 100 GB free, 1 Mbps up), 2 B smartphones (1 core, negligible storage,
// 1 Mbps up), 1 B tablets (1 core, 10 GB, 1 Mbps up), compute discount 8,
// mobile compute excluded.
func PaperDevices() DeviceParams {
	return DeviceParams{
		Classes: []DeviceClass{
			{Name: "personal computers", Count: 2e9, UnusedCores: 2, FreeStorageGB: 100, UpstreamMbps: 1, ComputeUsable: true},
			{Name: "smartphones", Count: 2e9, UnusedCores: 1, FreeStorageGB: 0, UpstreamMbps: 1, ComputeUsable: false},
			{Name: "tablets", Count: 1e9, UnusedCores: 1, FreeStorageGB: 10, UpstreamMbps: 1, ComputeUsable: false},
		},
		ComputeDiscount: 8,
	}
}

// Estimate computes the device-fleet capacity.
func (p DeviceParams) Estimate() Capacity {
	var c Capacity
	for _, cl := range p.Classes {
		c.BandwidthTbps += cl.Count * cl.UpstreamMbps / 1e6 // Mbps → Tbps
		c.StorageEB += cl.Count * cl.FreeStorageGB / 1e9    // GB → EB
		if cl.ComputeUsable {
			cores := cl.Count * cl.UnusedCores
			if p.ComputeDiscount > 0 {
				cores /= p.ComputeDiscount
			}
			c.Cores += cores
		}
	}
	return c
}

// Table3Row is one row of the paper's Table 3.
type Table3Row struct {
	Resource string
	Cloud    string
	Devices  string
	// Sufficient reports whether device capacity covers the cloud side.
	Sufficient bool
}

// Table3 regenerates the paper's Table 3 from the given parameters (pass
// PaperCloud()/PaperDevices() for the published numbers).
func Table3(cloud CloudParams, devices DeviceParams) []Table3Row {
	c := cloud.Estimate()
	d := devices.Estimate()
	return []Table3Row{
		{
			Resource:   "Bandwidth",
			Cloud:      fmt.Sprintf("%.0f Tbps", c.BandwidthTbps),
			Devices:    fmt.Sprintf("%.0f Tbps", d.BandwidthTbps),
			Sufficient: d.BandwidthTbps >= c.BandwidthTbps,
		},
		{
			Resource:   "Cores",
			Cloud:      fmt.Sprintf("%.0f M", c.Cores/1e6),
			Devices:    fmt.Sprintf("%.0f M", d.Cores/1e6),
			Sufficient: d.Cores >= c.Cores,
		},
		{
			Resource:   "Storage",
			Cloud:      fmt.Sprintf("%.0f EB", c.StorageEB),
			Devices:    fmt.Sprintf("%.0f EB", d.StorageEB),
			Sufficient: d.StorageEB >= c.StorageEB,
		},
	}
}

// QualityDiscount models §5.2's "infrastructure quality vs quantity":
// device capacity must be derated for availability (churn) and the
// redundancy overhead needed to mask it before it is comparable to
// datacenter capacity.
type QualityDiscount struct {
	// Availability is the long-run fraction of time a device is reachable.
	Availability float64
	// RedundancyFactor is the storage/bandwidth expansion (replication or
	// erasure overhead) required to ride out churn.
	RedundancyFactor float64
}

// Apply derates raw device capacity to effective capacity.
func (q QualityDiscount) Apply(c Capacity) Capacity {
	avail := q.Availability
	if avail <= 0 || avail > 1 {
		avail = 1
	}
	red := q.RedundancyFactor
	if red < 1 {
		red = 1
	}
	return Capacity{
		BandwidthTbps: c.BandwidthTbps * avail / red,
		Cores:         c.Cores * avail,
		StorageEB:     c.StorageEB / red,
	}
}

// BreakEvenRedundancy returns the maximum redundancy factor at which the
// derated device fleet still covers cloud storage, holding availability
// fixed. It answers: how much churn-masking overhead can the §4 conclusion
// absorb before it flips?
func BreakEvenRedundancy(cloud CloudParams, devices DeviceParams) float64 {
	c := cloud.Estimate()
	d := devices.Estimate()
	if c.StorageEB <= 0 {
		return 0
	}
	return d.StorageEB / c.StorageEB
}
