package himeno

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// gridDigest is the first 8 bytes of sha256 over each value's IEEE bits,
// little-endian, in grid order.
func gridDigest(g []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range g {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestReferenceGolden pins the solver's numerics bit for bit. The other
// tests compare every implementation against Reference; these digests
// pin Reference itself, so a rewrite of the kernels cannot drift.
func TestReferenceGolden(t *testing.T) {
	for _, tc := range []struct {
		mode             InitMode
		digest, gosaBits string
	}{
		{OfficialInit, "b3707c978c0e1f8e", "3f2a655f4711190a"},
		{ScrambledInit, "4c73ae2e46272e2f", "40495d6daa14e806"},
	} {
		grid, gosa := Reference(SizeS, 3, tc.mode)
		if got := gridDigest(grid); got != tc.digest {
			t.Errorf("mode %d: grid digest %s, want %s", tc.mode, got, tc.digest)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(gosa)); got != tc.gosaBits {
			t.Errorf("mode %d: gosa bits %s, want %s", tc.mode, got, tc.gosaBits)
		}
	}
}
