package cluster

import (
	"bytes"
	"testing"
)

// FuzzDecodeSpec: DecodeSpec never panics, and any spec it accepts survives
// EncodeSpec → DecodeSpec → EncodeSpec byte for byte. Run with
//
//	go test -run '^$' -fuzz FuzzDecodeSpec -fuzztime 10s ./internal/cluster/
func FuzzDecodeSpec(f *testing.F) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range entries {
		data, err := specFS.ReadFile("specs/" + ent.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := EncodeSpec(sys)
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		sys2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("decoding an encoded spec: %v\n%s", err, enc)
		}
		enc2, err := EncodeSpec(sys2)
		if err != nil {
			t.Fatalf("re-encoding a decoded spec: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n%s\n---\n%s", enc, enc2)
		}
	})
}
