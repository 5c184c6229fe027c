package main

import (
	"flag"
	"io"
	"testing"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFlagSurface pins the shared design flag surface: names, defaults and
// the -cipher alias. Every design-picking command registers exactly this
// set, so a drift here is a drift in all of them.
func TestFlagSurface(t *testing.T) {
	fs := newFS()
	registerDesign(fs)
	for _, tc := range []struct {
		name, def string
	}{
		{"spec", defaultSpec},
		{"cipher", defaultSpec},
		{"scheme", defaultScheme},
		{"entropy", defaultEntropy},
		{"engine", defaultEngine},
	} {
		f := fs.Lookup(tc.name)
		if f == nil {
			t.Errorf("-%s not registered", tc.name)
			continue
		}
		if f.DefValue != tc.def {
			t.Errorf("-%s default %q, want %q", tc.name, f.DefValue, tc.def)
		}
	}
}

// TestParseTable drives the shared surface through the service vocabulary:
// aliases land on the same field, every published spelling parses, and
// unknown values are rejected with an error.
func TestParseTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want designFlags
		bad  bool
	}{
		{name: "defaults", args: nil,
			want: designFlags{spec: "present80", scheme: "three-in-one", entropy: "prime", engine: "anf"}},
		{name: "spec spelling", args: []string{"-spec", "gift64"},
			want: designFlags{spec: "gift64", scheme: "three-in-one", entropy: "prime", engine: "anf"}},
		{name: "cipher alias", args: []string{"-cipher", "scone64"},
			want: designFlags{spec: "scone64", scheme: "three-in-one", entropy: "prime", engine: "anf"}},
		{name: "full selection", args: []string{"-spec", "present80", "-scheme", "acisp", "-entropy", "per-round", "-engine", "bdd"},
			want: designFlags{spec: "present80", scheme: "acisp", entropy: "per-round", engine: "bdd"}},
		{name: "unknown spec", args: []string{"-spec", "des"}, bad: true},
		{name: "unknown scheme", args: []string{"-scheme", "quadruple"}, bad: true},
		{name: "unknown entropy", args: []string{"-entropy", "cosmic"}, bad: true},
		{name: "unknown engine", args: []string{"-engine", "verilog"}, bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS()
			d := registerDesign(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			_, _, err := d.parse()
			if tc.bad {
				if err == nil {
					t.Fatalf("vocabulary accepted: %+v", d)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if *d != tc.want {
				t.Fatalf("parsed %+v, want %+v", *d, tc.want)
			}
		})
	}
}

func TestIsDefault(t *testing.T) {
	fs := newFS()
	d := registerDesign(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !d.isDefault() {
		t.Fatal("unparsed surface should be default")
	}
	fs = newFS()
	d = registerDesign(fs)
	if err := fs.Parse([]string{"-entropy", "per-sbox"}); err != nil {
		t.Fatal(err)
	}
	if d.isDefault() {
		t.Fatal("-entropy override not detected")
	}
}

func TestBuildDefault(t *testing.T) {
	fs := newFS()
	d := registerDesign(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	des, err := d.build()
	if err != nil {
		t.Fatal(err)
	}
	if des.Mod == nil {
		t.Fatal("built design has no module")
	}
}
