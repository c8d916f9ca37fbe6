package nanopowder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestReferenceGolden pins the model's numerics bit for bit: the first 8
// bytes of sha256 over every value's IEEE bits, little-endian, in cell
// order. The other tests compare the distributed runs against Reference;
// this digest pins Reference itself.
func TestReferenceGolden(t *testing.T) {
	const want = "8ed3258b2fee2fdd"
	h := sha256.New()
	var b [8]byte
	for _, cell := range Reference(Params{Cells: 40, Bins: 96, Steps: 2, SubSteps: 120}) {
		for _, v := range cell {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
		t.Fatalf("reference digest %s, want %s", got, want)
	}
}
