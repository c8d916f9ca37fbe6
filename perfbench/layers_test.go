package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Runtime work is billed to the innermost program frame.
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/mpi.(*Comm).deliver", "repro/internal/sim.(*Engine).runProc"}, "mpi"},
		{[]string{"repro/internal/sim.(*Engine).park", "repro/internal/mpi.Waitall"}, "sim"},
		// Closures and methods keep their package.
		{[]string{"repro/internal/xfer.(*Pipeline).Run.func2"}, "xfer"},
		// Packages folded onto a layer.
		{[]string{"repro/internal/himeno.jacobi"}, "app"},
		{[]string{"repro/internal/nanopowder.coagulate"}, "app"},
		{[]string{"repro/internal/bench.MeasureP2PTraced.func1"}, "app"},
		{[]string{"repro/internal/storage.(*FS).Write"}, "cluster"},
		{[]string{"repro/internal/core.Attach"}, "clmpi"},
		{[]string{"repro/internal/trace/critpath.Analyze"}, "trace"},
		// No program frame, or an unlisted package.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "norepro"},
		{[]string{"net/http.(*conn).serve", "runtime.goexit"}, "norepro"},
		{[]string{"repro/internal/profiling.Start"}, "norepro"},
		{[]string{"main.run", "repro/perfbench.helper"}, "norepro"},
		{nil, "norepro"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestRuntimeClass(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "rt_sched"},
		{[]string{"runtime.memmove", "runtime.copystack", "runtime.newstack", "runtime.morestack", "repro/internal/sim.(*Proc).Sleep"}, "rt_stack"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "repro/internal/mpi.newMsg"}, "rt_malloc"},
		// GC assist inside malloc is GC.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/cl.alloc"}, "rt_gc"},
		{[]string{"runtime.greyobject", "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "rt_gc"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.lock2", "runtime.lockWithRank", "runtime.lock", "runtime.chansend"}, "rt_sched"},
		// Only the leaf run of runtime frames counts.
		{[]string{"repro/internal/himeno.jacobi", "runtime.goexit"}, ""},
		{[]string{"runtime.memmove", "repro/internal/bytepool.Get", "runtime.mallocgc"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := runtimeClass(c.stack); got != c.want {
			t.Errorf("runtimeClass(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	c := newCPUShares()
	c.add([]stackSample{
		{frames: []string{"repro/internal/mpi.match"}, count: 3, nanos: 30, call: "mpi.send"},
		{frames: []string{"runtime.mallocgc", "repro/internal/sim.spawn"}, count: 2, nanos: 20, call: "mpi.send"},
		{frames: []string{"runtime.gcBgMarkWorker"}, count: 5, nanos: 50},
	})
	var sum float64
	for _, l := range layers {
		sum += c.share(c.layer[l])
	}
	if c.total != 10 || sum != 1 {
		t.Fatalf("total %d, shares sum %v; want 10 and 1", c.total, sum)
	}
	if got := c.share(c.runtime["rt_malloc"]); got != 0.2 {
		t.Errorf("rt_malloc share = %v, want 0.2", got)
	}
	if got := c.callNanos["mpi.send"]; got != 50 || len(c.callNanos) != 1 {
		t.Errorf("call nanos = %v, want mpi.send 50 only", c.callNanos)
	}
	if got := newCPUShares().share(0); got != 0 {
		t.Errorf("share with no samples = %v, want 0", got)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(150 * time.Millisecond)
	// A labelled call's label reaches the goroutines it starts.
	labelled("spin", func() {
		done := make(chan int)
		go func() { done <- spinForProfile(150 * time.Millisecond) }()
		<-done
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin, spinLabelled int64
	for _, s := range samples {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spinForProfile") {
				spin += s.count
				if s.call == "spin" {
					spinLabelled += s.count
				}
				break
			}
		}
		if s.count > 0 && s.nanos <= 0 {
			t.Errorf("sample of %d with %d CPU ns", s.count, s.nanos)
		}
	}
	if total == 0 || spin == 0 || spinLabelled == 0 || spinLabelled == spin {
		t.Fatalf("parsed %d samples, %d in spinForProfile, %d of them labelled; want all > 0 and some unlabelled",
			total, spin, spinLabelled)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestEachFieldRejectsTruncation(t *testing.T) {
	// Field 2, length-delimited, claims 5 bytes but carries 1.
	if err := eachField([]byte{0x12, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("eachField accepted a truncated message")
	}
	var got []uint64
	// Field 1 packed varints {1, 300}, then field 1 unpacked 7.
	err := eachField([]byte{0x0a, 0x03, 0x01, 0xac, 0x02, 0x08, 0x07}, func(num, typ int, v uint64, b []byte) error {
		got = appendVarints(got, typ, v, b)
		return nil
	})
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 300 || got[2] != 7 {
		t.Errorf("varints = %v, %v; want [1 300 7]", got, err)
	}
}
