package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
)

// Hash digests a normalized spec into its content address: the SHA-256 of
// the spec's canonical JSON encoding. json.Marshal of a struct emits fields
// in declaration order with no insignificant whitespace, so the digest is
// independent of how the submitting client ordered or formatted its JSON —
// Decode's Unmarshal absorbed that — while Normalize has already absorbed
// the semantic aliases (system case, strategy spellings, defaulted grids,
// and inline system specs re-encoded to cluster's canonical compact form —
// a RawMessage marshals verbatim, so those exact bytes are what the digest
// sees, and an inline spec that describes a built-in preset has already
// collapsed to the preset's name). Two submissions hash equal exactly when
// their simulated results are guaranteed byte-identical; in particular two
// spec files that merely share a system name still hash apart. The digest
// also covers cluster.ModelVersion, so memory and disk cache entries
// simulated under an older model never answer for the current one.
//
// Call with a Normalize output only; hashing a raw spec would let "cichlid"
// and "Cichlid" content-address different cache entries.
func Hash(norm JobSpec) string { return hashAt(cluster.ModelVersion, norm) }

// hashAt is Hash under model version v: the digest of the spec's encoding
// with the version as one more leading field.
func hashAt(v int, norm JobSpec) string {
	data, err := json.Marshal(struct {
		Model int `json:"model"`
		JobSpec
	}{v, norm})
	if err != nil {
		// JobSpec holds strings, ints, slices thereof, and a SystemSpec
		// that Normalize guarantees is valid JSON; Marshal cannot fail.
		panic(fmt.Sprintf("serve: hash marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// DecodeRaw parses a JSON job submission strictly (unknown fields are an
// error — a misspelled grid field silently meaning "use the default" would
// poison the content address — and so is anything but whitespace after the
// document) without normalizing it. The HTTP path uses
// this: the Manager normalizes on Submit, after resolving daemon-registered
// system names that plain Normalize does not know about.
func DecodeRaw(body []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("serve: decode job: %w", err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return JobSpec{}, fmt.Errorf("serve: decode job: trailing data after the document")
	}
	return spec, nil
}

// Decode parses a JSON job submission strictly and returns the normalized
// spec and its hash.
func Decode(body []byte) (JobSpec, string, error) {
	spec, err := DecodeRaw(body)
	if err != nil {
		return JobSpec{}, "", err
	}
	norm, err := Normalize(spec)
	if err != nil {
		return JobSpec{}, "", err
	}
	return norm, Hash(norm), nil
}
