package resil

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simnet"
)

// shed mirrors overload.Shed at test scale (resil must not import the
// overload package — the Classify hook is the only coupling).
type shed struct{ retryAfter time.Duration }

// shedErr mirrors *overload.ErrOverloaded: classified error with a hint.
type shedErr struct{ after time.Duration }

func (e *shedErr) Error() string                 { return "overloaded" }
func (e *shedErr) RetryAfterHint() time.Duration { return e.after }
func classifyShed(resp any) error {
	if s, ok := resp.(shed); ok {
		return &shedErr{after: s.retryAfter}
	}
	return nil
}

// shedWorld: the caller's Client classifies sheds; the server sheds the
// first n requests to "load" and then serves.
func shedWorld(t *testing.T, cfg Config, shedFirst int, hint time.Duration) (*clientWorld, *int) {
	t.Helper()
	cfg.Classify = classifyShed
	w := newClientWorld(t, cfg)
	srv := simnet.NewRPCNode(w.server)
	seen := new(int)
	srv.Serve("load", func(from simnet.NodeID, req any) (any, int) {
		*seen++
		if *seen <= shedFirst {
			return shed{retryAfter: hint}, 16
		}
		return req, 16
	})
	return w, seen
}

// TestShedStormKeepsBreakerClosed is the satellite regression: a storm of
// deliberate server sheds must never trip the caller's circuit breaker —
// a shedding server is alive, and breaking on sheds would turn graceful
// degradation into a self-inflicted outage. Every attempt of every
// operation is shed, so 50 operations meet 50·maxAttempts sheds in a row.
func TestShedStormKeepsBreakerClosed(t *testing.T) {
	w, _ := shedWorld(t, Defaults(), 1<<30, 10*time.Millisecond)
	for i := 0; i < 50; i++ {
		_, err := w.call(t, "load", time.Second)
		var se *shedErr
		if !errors.As(err, &se) {
			t.Fatalf("shed %d classified as %v", i, err)
		}
	}
	b := &w.res.peer(w.server.ID()).brk
	if !b.Allow(w.nw.Now()) {
		t.Fatal("breaker opened under a 50-shed storm")
	}
	if got := w.caller.Obs().Counter("resil.shed.count").Value(); got != 50*maxAttempts {
		t.Fatalf("resil.shed.count = %d, want %d", got, 50*maxAttempts)
	}
	if open := w.caller.Obs().Counter("resil.breaker.open").Value(); open != 0 {
		t.Fatalf("resil.breaker.open = %d, want 0", open)
	}
}

// TestShedRetryHonorsHint: a shed with a RetryAfter hint farther out than
// the backoff delays the retry to the hint; the retry then succeeds.
func TestShedRetryHonorsHint(t *testing.T) {
	const hint = 2 * time.Second
	w, seen := shedWorld(t, Defaults(), 1, hint)
	start := w.nw.Now()
	resp, err := w.call(t, "load", time.Second)
	if err != nil || resp != "ping" {
		t.Fatalf("hinted retry: resp=%v err=%v", resp, err)
	}
	if *seen != 2 {
		t.Fatalf("server saw %d requests, want shed+retry", *seen)
	}
	// The retry may not be issued before the hint elapses (backoff base is
	// 100ms±25%, so the 2s hint dominates).
	if elapsed := w.nw.Now() - start; elapsed < hint {
		t.Fatalf("operation completed at %v, before the %v hint", elapsed, hint)
	}
}

// TestShedDoesNotFeedEstimator: sheds return in near-zero service time;
// sampling them would drag the RTO below real service RTTs.
func TestShedDoesNotFeedEstimator(t *testing.T) {
	w, _ := shedWorld(t, Defaults(), 1, 10*time.Millisecond)
	if resp, err := w.call(t, "load", time.Second); err != nil || resp != "ping" {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	// Two round trips completed (shed + served) but only the served one
	// may contribute a sample.
	if got := w.res.peer(w.server.ID()).est.Samples(); got != 1 {
		t.Fatalf("estimator samples = %d, want 1 (shed must not sample)", got)
	}
}

// TestShedExhaustionFailsWithClassifiedError: when every attempt sheds,
// the operation fails with the classified error so callers can fail over
// to another replica.
func TestShedExhaustionFailsWithClassifiedError(t *testing.T) {
	w, seen := shedWorld(t, Defaults(), 1<<30, 5*time.Millisecond)
	_, err := w.call(t, "load", time.Second)
	var se *shedErr
	if !errors.As(err, &se) {
		t.Fatalf("exhausted shed err = %v, want classified", err)
	}
	if *seen != maxAttempts {
		t.Fatalf("server saw %d attempts, want maxAttempts=%d", *seen, maxAttempts)
	}
}
