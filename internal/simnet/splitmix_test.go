package simnet

import (
	"fmt"
	"testing"
)

// katBig is a non-power-of-two bound past 2⁶²: Int63n rejects about half
// of its raw draws, so a vector through it pins the rejection loop's
// consumption as well as its result.
const katBig = 1<<62 + 1

// TestStreamKnownAnswer pins the first draws of the three stream kinds at
// seed 42: the network stream, the private streams of nodes 0–2 reached
// through Node.Rand, and the sharded substrate streams of nodes 0–2. The
// values were taken through math/rand's Rand over SplitMix64, so they hold
// SplitMix64's own float64/int63n, which the network and substrate draws
// go through, and the lazily built node stream to exactly what was drawn
// before. The merge gate also runs this test on a 386 build, where a
// word-size or float-conversion difference in the stream code would first
// show.
func TestStreamKnownAnswer(t *testing.T) {
	type draws struct {
		f0, f1     float64
		pow2, dec  int64 // Int63n(1<<20), Int63n(1000)
		big0, big1 int64 // Int63n(katBig), twice
	}
	check := func(name string, got, want draws) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}

	r := networkRand(42)
	check("network", draws{r.float64(), r.float64(), r.int63n(1 << 20), r.int63n(1000), r.int63n(katBig), r.int63n(katBig)},
		draws{0.3432919220986735, 0.9557467261317436, 295385, 348, 622673004089118811, 1801800113242201786})

	// A node's private stream: the ExpFloat64 draws come last, after the
	// rejection loop, so they also pin how many raw values it consumed.
	type nodeDraws struct {
		f          float64
		pow2, dec  int64
		big0, big1 int64
		e0, e1     float64
	}
	nodeWant := []nodeDraws{
		{0.033754726333275885, 833547, 640, 745282000072933965, 1757660075977444556, 0.6699321578655641, 0.13670720425193147},
		{0.30597724467738857, 268019, 938, 2687877928069252891, 4605863003397203249, 2.1947104656956893, 0.28363300753034004},
		{0.13478018618494378, 156562, 352, 2553224057017954535, 690677074237625514, 0.2819632801977816, 0.7433608192069556},
	}
	nw := New(42)
	for i, want := range nodeWant {
		q := nw.AddNode().Rand()
		got := nodeDraws{q.Float64(), q.Int63n(1 << 20), q.Int63n(1000), q.Int63n(katBig), q.Int63n(katBig), q.ExpFloat64(), q.ExpFloat64()}
		if got != want {
			t.Errorf("node %d: got %+v, want %+v", i, got, want)
		}
	}

	subWant := []draws{
		{0.730085485734454, 0.5658457907191875, 310375, 134, 1886745592968439643, 1399276897302293205},
		{0.3334331823355719, 0.896975111583786, 97582, 695, 2281303215274724350, 715811684852859970},
		{0.48838501167246495, 0.12100914034370408, 1037770, 778, 1014741457416997546, 1265864296490483992},
	}
	for i, want := range subWant {
		s := substrateRand(42, NodeID(i))
		check(fmt.Sprint("substrate ", i), draws{s.float64(), s.float64(), s.int63n(1 << 20), s.int63n(1000), s.int63n(katBig), s.int63n(katBig)}, want)
	}

	// The salted streams, under the lossy-edge fault scenario's salt and
	// the workload schedule's.
	for _, want := range []struct {
		salt uint64
		i    int64
		f    float64
		dec  int64
	}{
		{0x10551, 8128822563430733034, 0.5496243009655337, 939},
		{0x301AD, 5287841038494604, 0.8260775409554214, 535},
	} {
		r := SaltedRand(42, want.salt)
		if i, f, dec := r.Int63(), r.Float64(), r.Int63n(1000); i != want.i || f != want.f || dec != want.dec {
			t.Errorf("salted %#x: got %d %v %d, want %d %v %d", want.salt, i, f, dec, want.i, want.f, want.dec)
		}
	}

	// On a single heap a node's substrate draws come from the network
	// stream itself, interleaved with harness draws in call order.
	single := New(42)
	n := single.AddNode()
	if a, b := single.Rand().Float64(), n.srng.float64(); a != 0.3432919220986735 || b != 0.9557467261317436 {
		t.Errorf("single heap: network then substrate draw = %v, %v; want the network stream's first two", a, b)
	}
}
