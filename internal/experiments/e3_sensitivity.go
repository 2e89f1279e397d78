package experiments

import (
	"fmt"

	"repro/internal/feasibility"
)

// feasibilitySensitivity is E3's sensitivity table. It probes how robust
// Table 3's "there appears to be sufficient capacity" conclusion is: each
// row perturbs one constant of the §4 model and reports the device-side
// estimate and whether it still covers the cloud side per resource. The
// paper acknowledges its numbers are rough extrapolations; this table
// shows which ones the conclusion actually hinges on.
func feasibilitySensitivity() *Table {
	t := &Table{Headers: []string{"Variant", "Device Capacity", "BW ok", "Cores ok", "Storage ok"}}
	cloud := feasibility.PaperCloud().Estimate()
	add := func(name string, d feasibility.DeviceParams) {
		c := d.Estimate()
		t.Add(name, c.String(),
			c.BandwidthTbps >= cloud.BandwidthTbps,
			c.Cores >= cloud.Cores,
			c.StorageEB >= cloud.StorageEB)
	}
	add("paper constants", feasibility.PaperDevices())

	half := feasibility.PaperDevices()
	half.Classes[0].Count /= 2
	add("half as many PCs", half)

	lowStorage := feasibility.PaperDevices()
	lowStorage.Classes[0].FreeStorageGB = 25
	add("PCs have 25 GB free (not 100)", lowStorage)

	slowUp := feasibility.PaperDevices()
	for i := range slowUp.Classes {
		slowUp.Classes[i].UpstreamMbps = 0.25
	}
	add("0.25 Mbps uplinks", slowUp)

	weakCPU := feasibility.PaperDevices()
	weakCPU.ComputeDiscount = 16
	add("compute discount 16x (not 8x)", weakCPU)

	mobileCompute := feasibility.PaperDevices()
	for i := range mobileCompute.Classes {
		mobileCompute.Classes[i].ComputeUsable = true
	}
	add("mobile compute allowed", mobileCompute)

	// The §5.2 quality discount, applied to the paper's constants.
	derated := feasibility.QualityDiscount{Availability: 0.5, RedundancyFactor: 3}.
		Apply(feasibility.PaperDevices().Estimate())
	t.Add("50% availability + 3x redundancy", derated.String(),
		derated.BandwidthTbps >= cloud.BandwidthTbps,
		derated.Cores >= cloud.Cores,
		derated.StorageEB >= cloud.StorageEB)

	t.Add(fmt.Sprintf("(break-even redundancy for storage: %.2fx)",
		feasibility.BreakEvenRedundancy(feasibility.PaperCloud(), feasibility.PaperDevices())),
		"", "", "", "")
	return t
}
