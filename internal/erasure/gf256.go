// Package erasure implements systematic Reed–Solomon erasure coding over
// GF(2⁸), built from scratch for this repository. A (k, n) code splits data
// into k data shards and produces n-k parity shards; any k of the n shards
// reconstruct the original data.
//
// The paper's §3.3 observes that decentralized storage systems make
// "decisions about … numbers of maintained replicas, mechanisms of replica
// production" with "inherent trade-offs among durability, availability,
// consistency, and performance". Erasure coding is the capacity-efficient
// end of that trade-off space; internal/storage uses this package to
// compare replication with coding under churn (experiment X5).
package erasure

// GF(2⁸) arithmetic using log/antilog tables over the AES/QR-code
// polynomial x⁸+x⁴+x³+x²+1 (0x11d).

const gfPoly = 0x11d

var (
	gfExp [512]byte // doubled so mul can skip a mod 255
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b. Panics on division by zero, which indicates a
// programming error in matrix inversion.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExpPow returns a**n for field element a.
func gfExpPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	logA := int(gfLog[a])
	return gfExp[(logA*n)%255]
}

// matrix is a dense row-major matrix over GF(256).
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// vandermonde returns the rows×cols matrix with entry (r, c) = r**c. Any
// square submatrix formed from distinct rows is invertible, which is the
// property Reed–Solomon reconstruction relies on.
func vandermonde(rows, cols int) *matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExpPow(byte(r), c))
		}
	}
	return m
}

// mul returns m × other.
func (m *matrix) mul(other *matrix) *matrix {
	if m.cols != other.rows {
		panic("erasure: matrix dimension mismatch")
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < other.cols; c++ {
			var acc byte
			for k := 0; k < m.cols; k++ {
				acc ^= gfMul(m.at(r, k), other.at(k, c))
			}
			out.set(r, c, acc)
		}
	}
	return out
}

// subMatrix returns rows [rmin, rmax) × cols [cmin, cmax).
func (m *matrix) subMatrix(rmin, rmax, cmin, cmax int) *matrix {
	out := newMatrix(rmax-rmin, cmax-cmin)
	for r := rmin; r < rmax; r++ {
		for c := cmin; c < cmax; c++ {
			out.set(r-rmin, c-cmin, m.at(r, c))
		}
	}
	return out
}

// invert returns the inverse via Gauss–Jordan elimination, or false if the
// matrix is singular.
func (m *matrix) invert() (*matrix, bool) {
	if m.rows != m.cols {
		return nil, false
	}
	n := m.rows
	work := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			work.set(r, c, m.at(r, c))
		}
		work.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		if pivot != col {
			for c := 0; c < 2*n; c++ {
				a, b := work.at(col, c), work.at(pivot, c)
				work.set(col, c, b)
				work.set(pivot, c, a)
			}
		}
		// Scale pivot row to 1.
		inv := gfInv(work.at(col, col))
		for c := 0; c < 2*n; c++ {
			work.set(col, c, gfMul(work.at(col, c), inv))
		}
		// Eliminate the column elsewhere.
		for r := 0; r < n; r++ {
			if r == col || work.at(r, col) == 0 {
				continue
			}
			f := work.at(r, col)
			for c := 0; c < 2*n; c++ {
				work.set(r, c, work.at(r, c)^gfMul(f, work.at(col, c)))
			}
		}
	}
	return work.subMatrix(0, n, n, 2*n), true
}
