package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestAreaTable3(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdArea([]string{"-table", "3"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "GE") {
		t.Fatalf("expected area table in output, got:\n%s", out.String())
	}
}

func TestAreaRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdArea([]string{"-engine", "yosys"}, &out, &errb); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := cmdArea([]string{"-table", "7"}, &out, &errb); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := cmdArea([]string{"-no-such-flag"}, &out, &errb); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
