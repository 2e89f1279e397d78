package pool

import (
	"strings"
	"testing"
)

type rec struct {
	n int
	Mark
	buf []byte
}

func TestPutPanicsNamingThePool(t *testing.T) {
	p := New[rec]("test.rec", nil)
	for name, release := range map[string]func(){
		"double Put":     func() { r := p.Get(); p.Put(r); p.Put(r) },
		"Put of a stray": func() { p.Put(&rec{}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "pool test.rec: ") {
					t.Errorf("%s: panic %q, want one naming the pool", name, msg)
				}
			}()
			release()
		}()
	}
}

func TestResetAndCounts(t *testing.T) {
	keep := New[rec]("test.keep", func(r *rec) { r.n, r.buf = 0, r.buf[:0] })
	for _, p := range []*Pool[rec, *rec]{keep, New[rec]("test.zero", nil)} {
		p.Counts() // the first read turns counting on
		r := p.Get()
		r.n, r.buf = 7, append(r.buf, 1, 2, 3)
		p.Put(r)
		if r.n != 0 || len(r.buf) != 0 || r.out || (p == keep) != (cap(r.buf) > 0) {
			t.Errorf("%s: released record %+v, want it reset, in, and holding its buffer only if kept", p.name, *r)
		}
		p.Put(p.Get())
		if taken, returned := p.Counts(); taken != 2 || returned != 2 {
			t.Errorf("%s: %d taken, %d returned; want 2 and 2", p.name, taken, returned)
		}
	}
}
