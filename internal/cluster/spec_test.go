package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// mutateSpec decodes the canonical Cichlid document into a generic tree,
// applies f, and re-encodes — the easiest way to corrupt one field while
// keeping the rest of the document valid.
func mutateSpec(t *testing.T, f func(doc map[string]any)) []byte {
	t.Helper()
	enc, err := EncodeSpec(Cichlid())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(enc, &doc); err != nil {
		t.Fatal(err)
	}
	f(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func system(doc map[string]any) map[string]any { return doc["system"].(map[string]any) }

// TestSpecValidationFailureModes asserts that every malformed spec fails
// with an error naming the precise field path of the offending value.
func TestSpecValidationFailureModes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(doc map[string]any)
		wantErr string
	}{
		{
			name:    "unknown schema version",
			mutate:  func(doc map[string]any) { doc["schema"] = "clmpi-system/v9" },
			wantErr: `schema: unknown schema version "clmpi-system/v9" (want "clmpi-system/v1")`,
		},
		{
			name:    "max nodes below one",
			mutate:  func(doc map[string]any) { system(doc)["max_nodes"] = 0 },
			wantErr: "system.max_nodes: must be >= 1 (got 0)",
		},
		{
			name:    "missing nic",
			mutate:  func(doc map[string]any) { delete(system(doc), "nic") },
			wantErr: "system.nic: missing",
		},
		{
			name: "negative nic bandwidth",
			mutate: func(doc map[string]any) {
				system(doc)["nic"].(map[string]any)["bw"] = -1e9
			},
			wantErr: "system.nic.bw: must be > 0 bytes/s (got -1e+09)",
		},
		{
			name: "zero pinned bandwidth",
			mutate: func(doc map[string]any) {
				system(doc)["gpu"].(map[string]any)["pcie_bw"].(map[string]any)["pinned"] = 0
			},
			wantErr: "system.gpu.pcie_bw.pinned: must be > 0 bytes/s (got 0)",
		},
		{
			name: "unknown host-memory kind",
			mutate: func(doc map[string]any) {
				system(doc)["gpu"].(map[string]any)["pcie_bw"].(map[string]any)["unified"] = 1e9
			},
			wantErr: `system.gpu.pcie_bw: unknown host-memory kind "unified" (want pageable, pinned, mapped, peer)`,
		},
		{
			name: "missing mapped bandwidth",
			mutate: func(doc map[string]any) {
				delete(system(doc)["gpu"].(map[string]any)["pcie_bw"].(map[string]any), "mapped")
			},
			wantErr: "system.gpu.pcie_bw.mapped: missing",
		},
		{
			name: "negative pin setup",
			mutate: func(doc map[string]any) {
				system(doc)["gpu"].(map[string]any)["pin_setup"] = "-1µs"
			},
			wantErr: "system.gpu.pin_setup: must be >= 0 (got -1µs)",
		},
		{
			name: "unknown default strategy",
			mutate: func(doc map[string]any) {
				system(doc)["default_strategy"] = "telepathy"
			},
			wantErr: `system.default_strategy: unknown strategy "telepathy" (want pinned or mapped)`,
		},
		{
			name:    "missing name",
			mutate:  func(doc map[string]any) { system(doc)["name"] = "" },
			wantErr: "system.name: missing",
		},
		{
			name: "zero cpu gflops",
			mutate: func(doc map[string]any) {
				system(doc)["cpu"].(map[string]any)["gflops"] = 0
			},
			wantErr: "system.cpu.gflops: must be > 0 (got 0)",
		},
		{
			name: "zero disk bandwidth",
			mutate: func(doc map[string]any) {
				system(doc)["disk"].(map[string]any)["bw"] = 0
			},
			wantErr: "system.disk.bw: must be > 0 bytes/s (got 0)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec(mutateSpec(t, tc.mutate))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error does not name the field:\nwant substring: %s\ngot: %s", tc.wantErr, err)
			}
		})
	}
}

// TestSpecStrictDecoding: unknown fields anywhere in the document are
// decode errors, not silently dropped knobs.
func TestSpecStrictDecoding(t *testing.T) {
	data := mutateSpec(t, func(doc map[string]any) {
		system(doc)["gpu"].(map[string]any)["pinned_bw"] = 5e9
	})
	if _, err := DecodeSpec(data); err == nil || !strings.Contains(err.Error(), "pinned_bw") {
		t.Fatalf("want unknown-field error naming pinned_bw, got %v", err)
	}
}

// TestSpecRejectsTrailingData: a spec is one JSON document. Garbage or a
// second document after it is a decode error; trailing whitespace is not.
func TestSpecRejectsTrailingData(t *testing.T) {
	enc, err := EncodeSpec(Cichlid())
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{`"garbage!!"`, "x", "{}", "]"} {
		if _, err := DecodeSpec(append(append([]byte{}, enc...), tail...)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("tail %q: want a trailing-data error, got %v", tail, err)
		}
	}
	if _, err := DecodeSpec(append(append([]byte{}, enc...), " \t\r\n"...)); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestSpecRoundTrip: decode(encode(sys)) == sys exactly, and re-encoding the
// decoded system reproduces the same bytes — the canonical-form property the
// content-addressed cache depends on.
func TestSpecRoundTrip(t *testing.T) {
	for name, sys := range Systems() {
		enc, err := EncodeSpec(sys)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, sys) {
			t.Errorf("%s: decode(encode(sys)) != sys\nwant %+v\ngot  %+v", name, sys, got)
		}
		enc2, err := EncodeSpec(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: re-encode not byte-identical", name)
		}
	}
}

// TestEmbeddedSpecsAreCanonical: every shipped spec file must already be in
// canonical form (decode → encode reproduces the file bytes exactly).
func TestEmbeddedSpecsAreCanonical(t *testing.T) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := specFS.ReadFile("specs/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		sys, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		enc, err := EncodeSpec(sys)
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		if !bytes.Equal(data, enc) {
			t.Errorf("%s is not canonical; regenerate with CLMPI_REGEN_SPECS=1 go test -run TestRegenerateSpecs ./internal/cluster/", ent.Name())
		}
	}
}

// TestResolve covers the name-or-file contract every -system flag shares.
func TestResolve(t *testing.T) {
	sys, err := Resolve("CICHLID")
	if err != nil || sys.Name != "Cichlid" {
		t.Fatalf("preset names are case-insensitive: got %v, %v", sys.Name, err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "mine.json")
	enc, err := EncodeSpec(Hopper())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err = Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys, Hopper()) {
		t.Fatal("file spec did not round-trip through Resolve")
	}

	if _, err := Resolve("nonesuch"); err == nil ||
		!strings.Contains(err.Error(), "cichlid, hopper, ricc, ricc-verbs") {
		t.Fatalf("unknown name must list the presets, got %v", err)
	}
	if _, err := Resolve(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing spec file must error")
	}
}

// TestPresetByCanonical: the compact canonical encoding of a preset maps
// back to its name (serve uses this to collapse inline specs to presets).
func TestPresetByCanonical(t *testing.T) {
	compact, err := EncodeSpecCompact(RICC())
	if err != nil {
		t.Fatal(err)
	}
	name, ok := PresetByCanonical(compact)
	if !ok || name != "ricc" {
		t.Fatalf("got %q, %v", name, ok)
	}
	if _, ok := PresetByCanonical([]byte("{}")); ok {
		t.Fatal("arbitrary bytes must not resolve to a preset")
	}
}
