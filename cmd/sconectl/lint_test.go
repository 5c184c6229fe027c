package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

func lintFixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", name)
}

func TestLintHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdLint([]string{"-h"}, &out, &errb); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errb.String(), "usage: sconectl lint") {
		t.Fatalf("help text missing usage line:\n%s", errb.String())
	}
}

func TestLintList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdLint([]string{"-list"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	for _, rule := range []string{"floating-net", "lambda-cone", "dual-branch", "detect-coverage"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("rule %s missing from -list output", rule)
		}
	}
}

func TestLintCleanFile(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdLint([]string{filepath.Join("testdata", "clean.nl")}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean module should print nothing without -summary, got:\n%s", out.String())
	}
}

func TestLintFindingsExit(t *testing.T) {
	var out, errb bytes.Buffer
	err := cmdLint([]string{lintFixture("dual_branch.nl")}, &out, &errb)
	if !errors.Is(err, errFindings) {
		t.Fatalf("run returned %v, want errFindings", err)
	}
	if !strings.Contains(out.String(), "dual-branch") {
		t.Fatalf("expected a dual-branch finding, got:\n%s", out.String())
	}
}

func TestLintJSON(t *testing.T) {
	var out, errb bytes.Buffer
	err := cmdLint([]string{"-json", lintFixture("lambda_cone.nl")}, &out, &errb)
	if !errors.Is(err, errFindings) {
		t.Fatalf("run returned %v, want errFindings", err)
	}
	var rep struct {
		Module   string `json:"module"`
		Findings int    `json:"findings"`
		Results  []struct {
			Rule        string `json:"rule"`
			Diagnostics []struct {
				Rule    string `json:"rule"`
				Message string `json:"message"`
			} `json:"diagnostics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Module != "lambda_cone" || rep.Findings != 1 {
		t.Fatalf("unexpected report: module=%q findings=%d", rep.Module, rep.Findings)
	}
}

func TestLintSynthesizedCore(t *testing.T) {
	for _, args := range [][]string{
		{"-summary", "-cipher", "present80", "-scheme", "three-in-one", "-entropy", "prime"},
		// scone64 comes with the design flags every command shares.
		{"-summary", "-spec", "scone64"},
	} {
		var out, errb bytes.Buffer
		if err := cmdLint(args, &out, &errb); err != nil {
			t.Fatalf("%v: protected core must lint clean: %v\n%s%s", args, err, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "0 findings") {
			t.Fatalf("%v: summary missing:\n%s", args, out.String())
		}
	}
}

func TestLintRuleSelection(t *testing.T) {
	var out, errb bytes.Buffer
	err := cmdLint([]string{"-rules", "structural", lintFixture("lambda_cone.nl")}, &out, &errb)
	if err != nil {
		t.Fatalf("structural rules must pass on lambda_cone.nl: %v", err)
	}
}

func TestLintRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-cipher", "des"},
		{"-scheme", "quadruple"},
		{"-entropy", "none"},
		{"-engine", "abc"},
		{"-rules", "no-such-rule", lintFixture("dead_gate.nl")},
		{"-bogus"},
		{"no-such-file.nl"},
	} {
		var out, errb bytes.Buffer
		err := cmdLint(args, &out, &errb)
		if err == nil || errors.Is(err, errFindings) || errors.Is(err, flag.ErrHelp) {
			t.Fatalf("args %v: err = %v, want a usage error", args, err)
		}
	}
}
