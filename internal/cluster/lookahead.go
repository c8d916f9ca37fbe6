package cluster

import (
	"fmt"
	"time"
)

// Conservative lookahead for partitioned simulation.
//
// A partitioned run splits the world's nodes into balanced contiguous
// per-shard ranges. The asynchronous conservative protocol
// (internal/sim/partition.go) needs a lower bound L on how far beyond a
// shard's clock any cross event it emits can land. The bound comes straight
// from the modelled hardware: the balanced split never puts two shards on
// one node or leaves a shard empty, so distinct shards interact only across
// the fabric, and no effect propagates faster than the NIC wire latency —
// the same for every shard pair.

// PartRange reports partition i's contiguous [lo, hi) slice of n ranks (and
// therefore nodes — ranks map to nodes one to one) under the balanced split
// used by partitioned worlds: boundaries at i*n/parts.
func PartRange(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// LookaheadMatrix derives the conservative lookahead matrix for an n-node
// world split into `parts` balanced contiguous shards on sys: the wire
// latency in every entry (the diagonal, which no cross event uses,
// included).
func LookaheadMatrix(sys System, n, parts int) [][]time.Duration {
	if parts < 1 {
		panic("cluster: lookahead matrix needs at least one partition")
	}
	if n < parts {
		panic(fmt.Sprintf("cluster: %d nodes cannot span %d partitions", n, parts))
	}
	cells := make([]time.Duration, parts*parts)
	for i := range cells {
		cells[i] = sys.NIC.WireLatency
	}
	la := make([][]time.Duration, parts)
	for from := range la {
		la[from] = cells[from*parts : (from+1)*parts : (from+1)*parts]
	}
	return la
}
