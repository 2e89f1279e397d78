package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/identity"
)

// wotSize sizes X12: the honest community, and the Sybil ring sizes
// swept. wotSizes is full scale, then tiny.
type wotSize struct {
	honest int
	rings  []int
}

var wotSizes = [2]wotSize{{12, []int{10, 50, 200, 1000}}, {4, []int{10}}}

// wotSybilMatrix is experiment X12: in an honest web of trust (a small
// community where everyone is ≤3 endorsement hops from everyone), an
// attacker manufactures Sybil rings of growing size. Before any honest
// member endorses a ring identity, the verifier trusts none of them; after
// a single careless endorsement, the verifier transitively trusts the
// entire ring. §3.1: PKIs relying on a WoT suffer "WoT Sybil attacks" —
// this measures the amplification factor directly. One row per ring size:
// Sybils trusted before and after the bridge.
func wotSybilMatrix(seed int64, s wotSize) Matrix {
	m := Matrix{Cols: []string{"Trusted Before Bridge", "Trusted After 1 Careless Endorsement"}}
	for _, ring := range s.rings {
		before, after := wotSybilRun(seed, s.honest, ring)
		m.add(fmt.Sprint(ring), float64(before), float64(after))
	}
	return m
}

// wotSybilTable renders X12 with the amplification each bridge buys.
func wotSybilTable(seed int64, s wotSize) *Table {
	m := wotSybilMatrix(seed, s)
	t := &Table{Headers: []string{"Sybil Ring Size", "Trusted Before Bridge", "Trusted After 1 Careless Endorsement", "Amplification"}}
	for r, v := range m.Vals {
		amp := "∞"
		if v[0] > 0 {
			amp = fmt.Sprintf("%.0fx", v[1]-v[0])
		}
		t.Add(m.Rows[r], fmt.Sprintf("%.0f", v[0]), fmt.Sprintf("%.0f", v[1]), amp)
	}
	return t
}

// wotSybilRun returns how many identities the verifier trusts before and
// after one honest member endorses one ring member. Counts exclude the
// honest community itself.
func wotSybilRun(seed int64, honest, ringSize int) (before, after int) {
	rng := rand.New(rand.NewSource(seed + int64(ringSize)))
	w := identity.NewWebOfTrust()
	members := make([]*identity.Identity, honest)
	for i := range members {
		id, err := identity.New(rng, fmt.Sprintf("honest-%d", i), identity.MechanismPseudonym)
		if err != nil {
			panic(err)
		}
		members[i] = id
		w.AddMember(id)
	}
	// Ring-of-honest topology plus a few chords: everyone reachable.
	for i := range members {
		w.Endorse(members[i], members[(i+1)%honest].Fingerprint())
		w.Endorse(members[i], members[(i+3)%honest].Fingerprint())
	}
	sybils, err := w.SybilRing(rng, ringSize)
	if err != nil {
		panic(err)
	}
	verifier := members[0].Fingerprint()
	const depth = 6

	countSybils := func() int {
		reach := w.ReachableSet(verifier, depth)
		n := 0
		for _, s := range sybils {
			if reach[s] {
				n++
			}
		}
		return n
	}
	before = countSybils()
	// One careless endorsement by a member 2 hops from the verifier.
	w.Endorse(members[2%honest], sybils[0])
	after = countSybils()
	return before, after
}
