package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestCallErrorText pins CallError to the messages the RPC layer has always
// produced with fmt.Errorf, one per cause, and checks that errors.Is still
// finds the sentinel through it.
func TestCallErrorText(t *testing.T) {
	const from, to = NodeID(3), NodeID(17)
	wait := 1500 * time.Millisecond
	cases := []struct {
		cause error
		old   error
	}{
		{ErrRPCTimeout, fmt.Errorf("simnet: call %s to node %d timed out after %v: %w", "dht.ping", to, wait, ErrRPCTimeout)},
		{ErrNotServed, fmt.Errorf("simnet: node %d does not serve %s: %w", to, "dht.ping", ErrNotServed)},
		{ErrCallerCrashed, fmt.Errorf("simnet: node %d crashed with call in flight: %w", from, ErrCallerCrashed)},
	}
	for _, c := range cases {
		err := error(&CallError{Method: "dht.ping", From: from, To: to, Wait: wait, cause: c.cause})
		if err.Error() != c.old.Error() {
			t.Errorf("%v: text %q, want %q", c.cause, err.Error(), c.old.Error())
		}
		if !errors.Is(err, c.cause) {
			t.Errorf("%v: errors.Is does not match its cause", c.cause)
		}
		for _, other := range cases {
			if other.cause != c.cause && errors.Is(err, other.cause) {
				t.Errorf("%v: errors.Is also matches %v", c.cause, other.cause)
			}
		}
		var ce *CallError
		if !errors.As(err, &ce) || ce.To != to {
			t.Errorf("%v: errors.As lost the call's fields", c.cause)
		}
	}
}
