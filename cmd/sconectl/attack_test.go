package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestAttackQuickSIFA(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdAttack([]string{"-attack", "sifa", "-quick"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "=== SIFA") {
		t.Fatalf("expected SIFA section in output, got:\n%s", out.String())
	}
}

func TestAttackRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdAttack([]string{"-attack", "rowhammer"}, &out, &errb); err == nil {
		t.Fatal("unknown attack accepted")
	}
	if err := cmdAttack([]string{"-bogus"}, &out, &errb); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := cmdAttack([]string{"-scheme", "quadruple"}, &out, &errb); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// -json restricted to one scheme emits the matrix through the shared
// service encoder: rows carry the wire vocabulary, nothing else is printed.
func TestAttackJSONSchemeFilter(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdAttack([]string{"-attack", "sifa", "-quick", "-scheme", "naive", "-json"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	var doc struct {
		Attack string `json:"attack"`
		Rows   []struct {
			Attack string `json:"attack"`
			Scheme string `json:"scheme"`
			Detail string `json:"detail"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Attack != "sifa" || len(doc.Rows) != 1 {
		t.Fatalf("filtered matrix %+v", doc)
	}
	if doc.Rows[0].Scheme != "naive" || doc.Rows[0].Detail == "" {
		t.Fatalf("bad row %+v", doc.Rows[0])
	}
	if strings.Contains(out.String(), "===") {
		t.Fatal("-json output mixed with the text report")
	}
}
