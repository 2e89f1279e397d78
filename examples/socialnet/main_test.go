package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// run executes the demo with stdout captured.
func run(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stdout = stdout }()
	main()
	w.Close()
	return <-out
}

// TestSocialnetReplays runs the demo twice and requires byte-equal output,
// the ratchet's wire bytes included: every key and nonce comes off a
// seeded stream. It also pins the headline of each act.
func TestSocialnetReplays(t *testing.T) {
	first, second := run(t), run(t)
	if first != second {
		t.Fatalf("two runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	for _, want := range []string{
		`bob    posts "rudeness is my brand" → accepted=false`,
		`alice  reads → INSTANCE UNREACHABLE`,
		`failover read finds 1 post(s)`,
		`wire bytes (server-visible): `,
		`bob decrypts: "meet at the old server room"`,
		`metadata observers under social-p2p            : 0`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("output lacks %q:\n%s", want, first)
		}
	}
}
