package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestDemoCompletes runs the demo, which exits through log.Fatal on any
// failed wait, and checks its last line; the addresses it prints vary run
// to run, so no Example can pin them.
func TestDemoCompletes(t *testing.T) {
	if out := stdout(t); !strings.Contains(out, "\ndistributed topology demo complete") {
		t.Fatalf("no %q line in:\n%s", "distributed topology demo complete", out)
	}
}

// stdout runs main and returns what it printed.
func stdout(t *testing.T) string {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	orig := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = orig
	w.Close()
	return <-out
}
