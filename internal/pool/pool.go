// Package pool is the one free list for records the simulation recycles: a
// sync.Pool of *T that checks in every run that each record goes back once.
// The record embeds a one-byte Mark that Get sets; Put panics with the
// pool's name when it is not set (a second release, or a record never
// taken). The mark travels with the record, so the check takes no lock,
// even when a record is taken on one shard's worker and released on another's.
package pool

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Mark is a pooled record's in/out state; embed it in a spare padding byte.
type Mark struct{ out bool }

func (m *Mark) mark() *Mark { return m }

// Record is a pointer to a struct that embeds Mark.
type Record[T any] interface {
	*T
	mark() *Mark
}

// Pool recycles *T records; build one with New.
type Pool[T any, P Record[T]] struct {
	name  string
	off   uintptr // of the Mark in a T
	reset func(P)
	p     sync.Pool
	// counting turns on at the first Counts call: only recycle tests read
	// the counts, so no other run pays for them.
	counting        atomic.Bool
	taken, returned atomic.Int64
}

// New returns a pool named name. Put hands each record to reset, which
// keeps what the record carries from one use to the next (a buffer, an
// owner); a nil reset zeroes the record.
func New[T any, P Record[T]](name string, reset func(P)) *Pool[T, P] {
	x := new(T)
	m := P(x).mark()
	off := uintptr(unsafe.Pointer(m)) - uintptr(unsafe.Pointer(x))
	return &Pool[T, P]{name: name, off: off, reset: reset}
}

// mark finds x's Mark by offset, cheaper than a generic method call.
func (p *Pool[T, P]) mark(x P) *Mark { return (*Mark)(unsafe.Add(unsafe.Pointer(x), p.off)) }

// Get returns a released record, reset, or a new zero one.
func (p *Pool[T, P]) Get() P {
	x, _ := p.p.Get().(P)
	if x == nil {
		x = new(T)
	}
	p.mark(x).out = true
	if p.counting.Load() {
		p.taken.Add(1)
	}
	return x
}

// Put returns x to the pool. It panics if x is not out.
func (p *Pool[T, P]) Put(x P) {
	m := p.mark(x)
	if !m.out {
		panic("pool " + p.name + ": Put of a record that is not out (released twice, or never taken)")
	}
	if p.reset != nil {
		p.reset(x)
	} else {
		var zero T
		*x = zero
	}
	m.out = false
	if p.counting.Load() {
		p.returned.Add(1)
	}
	p.p.Put(x)
}

// Counts returns the Gets and Puts since the pool's first Counts call:
// that call turns counting on and returns zeros, so a recycle test reads
// the counts once before it acts and once after.
//
//reach:the recycle tests of simnet, dht, replic and resil read it
func (p *Pool[T, P]) Counts() (taken, returned int64) {
	p.counting.Store(true)
	return p.taken.Load(), p.returned.Load()
}
