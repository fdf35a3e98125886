package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins the contended-media pipeline's whole
// report: the initial schedule's transfer count on the contended bus,
// the send/receive task collision, and the balanced memory and
// transfer counts. testdata/golden.txt is the reference output.
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	main()
	os.Stdout = stdout
	w.Close()
	if out := <-got; !bytes.Equal(out, want) {
		t.Fatalf("output differs from testdata/golden.txt:\n%s", out)
	}
}
