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

// TestStoragemarketReplays runs the demo twice and requires byte-equal
// output: asks, shard placement, audits and payments all run on one
// seeded network. It also pins the headline of each act.
func TestStoragemarketReplays(t *testing.T) {
	first, second := run(t), run(t)
	if first != second {
		t.Fatalf("two runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	for _, want := range []string{
		`provider 2: price 4/epoch   (secretly a cheater)`,
		`4 shards placed; redundancy 2.0x`,
		`4 contracts visible on chain`,
		`epoch 3: provider at node 3 FAILED its proof → no payment`,
		`provider c7d7ced5 earned 6 on-chain`,
		`provider c41022b2 earned 0 on-chain`,
		`downloaded 4017 bytes, verified: true`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("output lacks %q:\n%s", want, first)
		}
	}
}
