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

// TestP2pchatReplays runs the demo twice and requires byte-equal output:
// identities, the chain and the DHT are all seeded. It also pins the
// headline of each act.
func TestP2pchatReplays(t *testing.T) {
	first, second := run(t), run(t)
	if first != second {
		t.Fatalf("two runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	for _, want := range []string{
		`alice.chat → 9e5f0a9c`,
		`bob.chat   → d8975a5c`,
		`== 2. app instances boot in two 'browsers' over a shared DHT`,
		`alice ← "hello alice, this is bob.chat"`,
		`bob   ← "hi bob, no servers here"`,
		`history after alice left: "bob: hello / alice: hi"`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("output lacks %q:\n%s", want, first)
		}
	}
}
