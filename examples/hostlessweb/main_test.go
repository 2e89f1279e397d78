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

// TestHostlesswebReplays runs the demo twice and requires byte-equal
// output: site keys, manifests and seeder choices all come off seeded
// streams. It also pins the headline of each act.
func TestHostlesswebReplays(t *testing.T) {
	first, second := run(t), run(t)
	if first != second {
		t.Fatalf("two runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	for _, want := range []string{
		`site address: 21e33ba0`,
		`tracker now lists 5 seeders`,
		`visitor refreshed=true, app.js="render('v2')"`,
		`refresh against forged manifest: webapp: invalid refreshed manifest`,
		`fresh visit with author offline: success=true`,
		`fork published at 108cefba (provenance → 21e33ba0)`,
		`author merged fork into v3 of the original site`,
		`== final site v3, 2 files, 58 bytes, 6 seeders`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("output lacks %q:\n%s", want, first)
		}
	}
}
