package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceDumpsVCD(t *testing.T) {
	for _, tc := range []struct {
		args []string
		// lambdaMoves says whether the λ port may change after the
		// load cycle: prime entropy holds it for the whole run, the
		// other variants draw it afresh every cycle.
		lambdaMoves bool
	}{
		{args: []string{"-scheme", "three-in-one", "-fault"}},
		// Any design the shared flags name can be traced.
		{args: []string{"-spec", "gift64"}},
		{args: []string{"-entropy", "per-round"}, lambdaMoves: true},
		{args: []string{"-entropy", "per-sbox"}, lambdaMoves: true},
	} {
		var out, errb bytes.Buffer
		if err := cmdTrace(tc.args, &out, &errb); err != nil {
			t.Fatalf("%v: run: %v (stderr: %s)", tc.args, err, errb.String())
		}
		if !strings.Contains(out.String(), "$enddefinitions") {
			t.Fatalf("%v: output is not a VCD dump", tc.args)
		}
		if !strings.Contains(errb.String(), "ct=") {
			t.Fatalf("%v: expected ciphertext summary on stderr, got: %s", tc.args, errb.String())
		}
		if n := lambdaChanges(out.String()); (n > 0) != tc.lambdaMoves {
			t.Errorf("%v: λ port changes %d times after the load cycle", tc.args, n)
		}
	}
}

// lambdaChanges counts the value changes a VCD dump records on the λ port
// bits after its initial #0 snapshot.
func lambdaChanges(vcd string) int {
	codes := make(map[string]bool)
	n, initial := 0, true
	for _, line := range strings.Split(vcd, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 6 && f[0] == "$var" && strings.HasPrefix(f[4], "lambda("):
			codes[f[3]] = true
		case strings.HasPrefix(line, "#"):
			initial = line == "#0"
		case !initial && len(line) > 1 && codes[line[1:]]:
			n++
		}
	}
	return n
}

func TestTraceRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdTrace([]string{"-scheme", "quintuple"}, &out, &errb); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := cmdTrace([]string{"-bogus"}, &out, &errb); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
