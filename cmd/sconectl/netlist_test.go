package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetlistStats(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "unprotected", "-format", "stats"},
		// scone64 comes with the design flags every command shares.
		{"-cipher", "scone64", "-format", "stats"},
	} {
		var out, errb bytes.Buffer
		if err := cmdNetlist(args, &out, &errb); err != nil {
			t.Fatalf("%v: run: %v (stderr: %s)", args, err, errb.String())
		}
		if !strings.Contains(out.String(), "DFF") {
			t.Fatalf("%v: expected cell statistics in output, got:\n%s", args, out.String())
		}
	}
}

func TestNetlistTextExport(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdNetlist([]string{"-cipher", "gift64", "-scheme", "unprotected", "-format", "text"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if out.Len() == 0 {
		t.Fatal("text export produced no output")
	}
}

func TestNetlistRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-cipher", "des"},
		{"-scheme", "quadruple"},
		{"-entropy", "none"},
		{"-engine", "abc"},
		{"-format", "verilog"},
		{"-bogus"},
	} {
		if err := cmdNetlist(args, &out, &errb); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
