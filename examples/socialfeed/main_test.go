package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestLoadAndServe runs the stress program and checks it got as far as
// serving the supernode forum after its timed load phase; the timings it
// prints vary run to run, so no Example can pin them.
func TestLoadAndServe(t *testing.T) {
	if out := stdout(t); !strings.Contains(out, "\nforum 0: ") {
		t.Fatalf("no %q line in:\n%s", "forum 0: ", out)
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
