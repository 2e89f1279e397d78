package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Multi-trial runner: experiments stop being single-seed, single-core by
// fanning N independent seeds across worker goroutines. Parallelism is
// strictly trial-level — each trial constructs and owns its entire Network,
// so no simulation state is shared between goroutines and every per-seed
// result is bit-for-bit identical no matter how many workers run or how
// the OS schedules them.

// Trials runs one trial per seed, at most workers at a time, and returns
// the results in seed order. workers <= 0 means GOMAXPROCS. run must be
// self-contained: it builds its own Network from the seed and returns a
// value derived only from that simulation.
func Trials[T any](seeds []int64, workers int, run func(seed int64) T) []T {
	results := make([]T, len(seeds))
	Each(len(seeds), workers, func(i int) { results[i] = run(seeds[i]) })
	return results
}

// Each calls run(i) for every i in [0, n), at most workers at a time, and
// returns when all have returned. workers <= 0 means GOMAXPROCS; with one
// worker the calls run in index order on the calling goroutine. Workers
// take indices in increasing order, so a caller that wants its longest
// jobs started first lists them first.
func Each(n, workers int, run func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// Seeds derives n deterministic, well-spread trial seeds from base using
// SplitMix64. Distinct bases yield unrelated seed lists; the same base
// always yields the same list.
func Seeds(base int64, n int) []int64 {
	src := NewSplitMix64(mix64(uint64(base)))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(src.Uint64())
	}
	return out
}
