// Package chunker implements Rabin-style content-defined chunking: a
// rolling polynomial fingerprint over a sliding byte window cuts data at
// content-determined boundaries, so that a local edit (insert, delete,
// point change) shifts only the chunks around the edit instead of
// re-aligning every chunk after it — the property that makes
// content-addressed deduplication survive real workloads (restic's
// chunker, LBFS). Boundaries are a pure function of (polynomial, bounds,
// data): no clocks, no global randomness, so two uploaders of the same
// bytes always produce the same chunk set.
package chunker

import "math/bits"

// Pol is a polynomial over GF(2), bit i holding the coefficient of x^i.
// Fingerprinting uses an irreducible polynomial of degree 53: the degree
// is fixed so that every intermediate product in the table builders stays
// inside 64 bits without multi-word arithmetic.
type Pol uint64

// polDegree is the fixed fingerprint polynomial degree. 53 is prime,
// which keeps the irreducibility test to two checks (the package tests
// check DefaultPol with it), and deg+8 < 64 keeps the byte-append shift
// overflow-free.
const polDegree = 53

// DefaultPol is a known irreducible degree-53 polynomial (the one
// restic's chunker tests pin their goldens to).
const DefaultPol Pol = 0x3DA3358B4DC173

// Deg returns the degree of p, or -1 for the zero polynomial.
func (p Pol) Deg() int { return bits.Len64(uint64(p)) - 1 }

// mod reduces a modulo m (polynomial division over GF(2), remainder).
func mod(a, m Pol) Pol {
	dm := m.Deg()
	for da := a.Deg(); da >= dm; da = a.Deg() {
		a ^= m << uint(da-dm)
	}
	return a
}
