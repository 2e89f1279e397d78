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

// TestQuickstartReplays runs the demo twice and requires byte-equal
// output: the chain, naming, storage and payment layers all run on one
// seeded network. It also pins the headline of each act.
func TestQuickstartReplays(t *testing.T) {
	first, second := run(t), run(t)
	if first != second {
		t.Fatalf("two runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	for _, want := range []string{
		`chain height 5 on every replica`,
		`== 2. alice registers alice.id (preorder → register)`,
		`stored 2112 bytes as 3 chunks x3 replicas (min redundancy 3)`,
		`audit: 9/9 challenges passed`,
		`provider balance on-chain: 2`,
		`alice.id → owner d62a60b7, zone hash 5d8d86dd8aef0563…`,
		`fetched 2112 bytes, content verified ✓`,
		`== summary: chain height 45, 1 contract(s) on chain, ledger 12141 bytes`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("output lacks %q:\n%s", want, first)
		}
	}
}
