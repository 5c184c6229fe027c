package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// The scheme vocabulary has one source of truth — the core registry — and
// three consumers: the CLI design flag surface, the service wire
// schema (service.ParseDesign) and the reverse mapping (core.SchemeWire).
// This table-driven test walks the registry and asserts all of them agree,
// so registering a scheme cannot silently miss a surface.
func TestSchemeVocabularySync(t *testing.T) {
	schemes := core.Schemes()
	if len(schemes) == 0 {
		t.Fatal("empty scheme registry")
	}

	var sawDefault bool
	for _, info := range schemes {
		t.Run(info.Wire, func(t *testing.T) {
			// Wire token and every alias resolve through the service
			// wire schema to the registered scheme.
			for _, token := range append([]string{info.Wire}, info.Aliases...) {
				_, opts, err := service.ParseDesign(service.DesignSpec{Scheme: token})
				if err != nil {
					t.Fatalf("ParseDesign(scheme=%q): %v", token, err)
				}
				if opts.Scheme != info.Scheme {
					t.Fatalf("ParseDesign(scheme=%q) = %v, want %v", token, opts.Scheme, info.Scheme)
				}
			}
			// The reverse mapping returns the canonical token.
			if got := core.SchemeWire(info.Scheme); got != info.Wire {
				t.Fatalf("SchemeWire(%v) = %q, want %q", info.Scheme, got, info.Wire)
			}
			// Capability flags agree with the Scheme methods.
			if info.Duplicated != info.Scheme.Duplicated() ||
				info.UsesRandomness != info.Scheme.Randomized() ||
				info.Corrects != info.Scheme.Correcting() ||
				info.Masked != info.Scheme.Masked() {
				t.Fatalf("registry capability flags disagree with Scheme methods for %v", info.Scheme)
			}
			if info.Name != info.Scheme.String() {
				t.Fatalf("registry name %q != String() %q", info.Name, info.Scheme.String())
			}
			if info.Default {
				sawDefault = true
				if defaultScheme != info.Wire {
					t.Fatalf("defaultScheme = %q, registry default = %q", defaultScheme, info.Wire)
				}
				_, opts, err := service.ParseDesign(service.DesignSpec{})
				if err != nil {
					t.Fatalf("ParseDesign(empty scheme): %v", err)
				}
				if opts.Scheme != info.Scheme {
					t.Fatalf("empty scheme resolves to %v, want default %v", opts.Scheme, info.Scheme)
				}
			}
		})
	}
	if !sawDefault {
		t.Fatal("registry has no default scheme")
	}

	// The flag help string embeds the full vocabulary.
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerDesign(fs)
	help := fs.Lookup("scheme").Usage
	for _, info := range schemes {
		if !strings.Contains(help, info.Wire) {
			t.Errorf("-scheme help %q is missing token %q", help, info.Wire)
		}
	}

	// Unknown tokens are rejected with the vocabulary in the error.
	if _, _, err := service.ParseDesign(service.DesignSpec{Scheme: "no-such-scheme"}); err == nil {
		t.Fatal("ParseDesign accepted an unknown scheme")
	} else if !strings.Contains(err.Error(), core.SchemeVocabulary()) {
		t.Errorf("unknown-scheme error %q does not list the vocabulary", err)
	}
}
