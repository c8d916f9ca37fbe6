package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution of CPU-profile samples. A sample is charged to the
// innermost frame that belongs to the program (an import path under
// repro/internal/), so runtime work such as malloc or a channel handoff is
// billed to the layer that asked for it. Samples with no such frame — GC
// workers, the HTTP stack before a handler runs, the benchmark's own
// loops — are charged to "norepro".

// layers lists the attribution buckets in report order.
var layers = []string{
	"sim", "mpi", "cl", "clmpi", "xfer", "cluster", "app", "serve",
	"sweep", "trace", "obs", "bytepool", "norepro",
}

// packageLayer folds the program's packages onto the layers above: the
// application kernels and the figure functions of internal/bench are "app",
// the node-local storage model is part of "cluster", the core re-export is
// "clmpi", and trace's subpackages are "trace".
var packageLayer = map[string]string{
	"sim": "sim", "mpi": "mpi", "cl": "cl", "clmpi": "clmpi", "core": "clmpi",
	"xfer": "xfer", "cluster": "cluster", "storage": "cluster",
	"himeno": "app", "nanopowder": "app", "bench": "app",
	"serve": "serve", "sweep": "sweep", "trace": "trace", "obs": "obs",
	"bytepool": "bytepool",
}

const internalPrefix = "repro/internal/"

// layerOf classifies one stack, given as function names leaf first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		return "norepro"
	}
	return "norepro"
}

// Runtime classes: what the Go runtime was doing at the sampled instant,
// judged from the run of runtime frames at the leaf of the stack. Classes
// are checked in this order, so GC assist inside malloc counts as GC and a
// stack copy during a channel handoff counts as stack growth.
var rtClasses = []struct {
	name     string
	prefixes []string
}{
	{"rt_gc", []string{
		"runtime.gc", "runtime.scan", "runtime.markroot", "runtime.greyobject",
		"runtime.findObject", "runtime.bgsweep", "runtime.sweepone",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*gcWork)",
		"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*gcControllerState)",
	}},
	{"rt_stack", []string{
		"runtime.newstack", "runtime.copystack", "runtime.morestack",
		"runtime.stackalloc", "runtime.stackfree", "runtime.stackcache",
		"runtime.shrinkstack", "runtime.adjust", "runtime.(*stkframe)",
	}},
	{"rt_malloc", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.nextFreeFast",
	}},
	{"rt_sched", []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.mcall",
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.send", "runtime.recv", "runtime.newproc", "runtime.goexit",
		"runtime.gogo", "runtime.execute", "runtime.runq", "runtime.gfget",
		"runtime.gfput", "runtime.casgstatus", "runtime.futex", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.notesleep",
		"runtime.notewakeup", "runtime.sema", "runtime.lock", "runtime.unlock",
		"runtime.osyield", "runtime.usleep",
	}},
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// runtimeClass classifies a stack (leaf first) by its leaf runtime frames;
// "" when the leaf is not in the runtime or matches no class.
func runtimeClass(stack []string) string {
	n := 0
	for n < len(stack) && isRuntimeFrame(stack[n]) {
		n++
	}
	for _, c := range rtClasses {
		for _, fn := range stack[:n] {
			for _, p := range c.prefixes {
				if strings.HasPrefix(fn, p) {
					return c.name
				}
			}
		}
	}
	return ""
}

// callLabel is the pprof label key under which a workload names the layer
// entry point a goroutine is running (e.g. "himeno.run"). Goroutines
// started under the label inherit it, so a call's CPU time includes the
// simulated ranks and pool workers it spawns.
const callLabel = "call"

// cpuShares accumulates CPU-profile samples by layer and runtime class, and
// CPU time by call label.
type cpuShares struct {
	total     int64
	layer     map[string]int64
	runtime   map[string]int64
	callNanos map[string]int64
}

func newCPUShares() *cpuShares {
	return &cpuShares{layer: map[string]int64{}, runtime: map[string]int64{}, callNanos: map[string]int64{}}
}

// add charges one profile's samples.
func (c *cpuShares) add(samples []stackSample) {
	for _, s := range samples {
		c.total += s.count
		c.layer[layerOf(s.frames)] += s.count
		if rc := runtimeClass(s.frames); rc != "" {
			c.runtime[rc] += s.count
		}
		if s.call != "" {
			c.callNanos[s.call] += s.nanos
		}
	}
}

// share reports a bucket's fraction of all samples (0 with no samples).
func (c *cpuShares) share(n int64) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(n) / float64(c.total)
}

// stackSample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded), its sample count and CPU nanoseconds,
// and its callLabel value ("" when unlabelled).
type stackSample struct {
	frames []string
	count  int64
	nanos  int64
	call   string
}

// parseProfile decodes the parts of a gzipped pprof protobuf profile (as
// written by runtime/pprof) the attribution needs: samples, locations,
// functions, labels and the string table. Field numbers follow
// profile.proto.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		vals   []uint64
		labels [][2]uint64 // (key, value) string indices
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num, typ int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, typ, v, b)
				case 2:
					s.vals = appendVarints(s.vals, typ, v, b)
				case 3: // Label
					var kv [2]uint64
					err := eachField(b, func(num, typ int, v uint64, b []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, typ int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{count: int64(s.vals[0])}
		if len(s.vals) > 1 {
			ss.nanos = int64(s.vals[1])
		}
		for _, kv := range s.labels {
			if kv[0] < uint64(len(strs)) && kv[1] < uint64(len(strs)) && strs[kv[0]] == callLabel {
				ss.call = strs[kv[1]]
			}
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					ss.frames = append(ss.frames, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and either its varint/fixed value or its length-delimited
// bytes.
func eachField(b []byte, fn func(num, typ int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := fn(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (wire type
// 2) or not.
func appendVarints(dst []uint64, typ int, v uint64, b []byte) []uint64 {
	if typ == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
