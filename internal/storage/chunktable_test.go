package storage

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/storage/chunker"
)

func TestJoinCompletesOnceAfterLast(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		calls := 0
		j := newJoin(func() { calls++ })
		for i := 0; i < n; i++ {
			j.add()
		}
		j.release() // the issuer's count
		for i := 0; i < n; i++ {
			if calls != 0 {
				t.Fatalf("n=%d: done ran with %d of %d items still out", n, n-i, n)
			}
			j.release()
		}
		if calls != 1 {
			t.Errorf("n=%d: done ran %d times, want once", n, calls)
		}
	}
	// Items that complete while the issuer is still issuing (a fetch with
	// no holders, a placement with no candidates) must not finish the join
	// before the last item is issued.
	calls := 0
	j := newJoin(func() { calls++ })
	for i := 0; i < 3; i++ {
		j.add()
		j.release()
		if calls != 0 {
			t.Fatalf("done ran after item %d, before the issuer released", i)
		}
	}
	j.release()
	if calls != 1 {
		t.Errorf("done ran %d times, want once", calls)
	}
}

// derivedChunkLen is how chunk lengths were derived before every manifest
// carried a chunk table: an erasure shard is ceil(size/k) bytes, at least
// 1; a fixed chunk is chunkSize, the last one the remainder.
func derivedChunkLen(m *Manifest, chunkSize, ci int) int {
	if m.Mode == ModeErasure {
		return max(1, (m.Size+m.DataShards-1)/m.DataShards)
	}
	if n := len(m.Chunks); ci == n-1 {
		return m.Size - chunkSize*(n-1)
	}
	return chunkSize
}

// TestChunkLensKnownAnswers pins the chunk table of fixed, content-defined
// and erasure manifests at sizes 0, 1, an exact multiple of every chunk
// and shard size, and a ragged size. The proof-of-storage leaf bound Audit
// draws from is numProofLeaves(ChunkLens[ci]), so a changed length moves
// every audit's RNG draw.
func TestChunkLensKnownAnswers(t *testing.T) {
	const chunkSize, k, parity = 512, 4, 2
	ck, err := chunker.New(chunker.Defaults(512))
	if err != nil {
		t.Fatal(err)
	}
	rep := func(n, v int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := []struct {
		size                int
		fixed, cdc, erasure []int
	}{
		{0, []int{0}, []int{0}, rep(k+parity, 1)},
		{1, []int{1}, []int{1}, rep(k+parity, 1)},
		{2048, rep(4, 512), []int{1204, 844}, rep(k+parity, 512)},
		{3001, append(rep(5, 512), 441), []int{618, 893, 665, 168, 205, 262, 156, 34}, rep(k+parity, 751)},
	}
	nw, client, providers := storageWorld(t, 21, k+parity, 1<<20)
	upload := func(f func(done func(*Manifest, *Placement, error))) *Manifest {
		var m *Manifest
		f(func(mm *Manifest, _ *Placement, err error) {
			if err != nil {
				t.Fatal(err)
			}
			m = mm
		})
		nw.RunAll()
		return m
	}
	for _, c := range cases {
		data := mkData(int64(c.size), c.size)
		fixed := upload(func(done func(*Manifest, *Placement, error)) {
			client.Upload(data, chunkSize, refs(providers), 2, done)
		})
		cdc := upload(func(done func(*Manifest, *Placement, error)) {
			client.UploadCDC(data, ck, refs(providers), 2, done)
		})
		ec := upload(func(done func(*Manifest, *Placement, error)) {
			client.UploadErasure(data, k, parity, refs(providers), done)
		})
		for _, got := range []struct {
			name string
			m    *Manifest
			want []int
		}{{"fixed", fixed, c.fixed}, {"cdc", cdc, c.cdc}, {"erasure", ec, c.erasure}} {
			name := fmt.Sprintf("%s/%d", got.name, c.size)
			if !slices.Equal(got.m.ChunkLens, got.want) {
				t.Errorf("%s: ChunkLens %v, want %v", name, got.m.ChunkLens, got.want)
			}
			if len(got.m.ChunkLens) != len(got.m.Chunks) || len(got.m.ChunkRoots) != len(got.m.Chunks) {
				t.Errorf("%s: %d lengths and %d roots for %d chunks", name, len(got.m.ChunkLens), len(got.m.ChunkRoots), len(got.m.Chunks))
			}
			if got.m == cdc {
				continue // content-defined lengths were never derived
			}
			for ci, n := range got.m.ChunkLens {
				if d := derivedChunkLen(got.m, chunkSize, ci); n != d {
					t.Errorf("%s: chunk %d has length %d, the size-derived length is %d", name, ci, n, d)
				}
			}
		}
	}
}
