//go:build !race

package cryptoutil

import "testing"

// TestAllocLeafHash: a leaf up to stackLeafMax bytes — storage's 256-byte
// proof leaves included — is encoded on the stack, so hashing it allocates
// nothing. 33 bytes is the first size the old 1 + 32-byte scratch spilled.
func TestAllocLeafHash(t *testing.T) {
	for _, n := range []int{33, stackLeafMax} {
		data := make([]byte, n)
		var sink Hash
		if avg := testing.AllocsPerRun(100, func() { sink = LeafHash(data) }); avg != 0 {
			t.Errorf("LeafHash of %d bytes allocates %.2f/op, want 0", n, avg)
		}
		_ = sink
	}
}
