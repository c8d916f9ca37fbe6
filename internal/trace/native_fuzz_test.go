package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadNative: ReadNative never panics, any bus it accepts survives
// WriteNative → ReadNative unchanged, and deriving that bus's metrics
// report never panics. Run with
//
//	go test -run '^$' -fuzz FuzzReadNative -fuzztime 10s ./internal/trace/
func FuzzReadNative(f *testing.F) {
	b := NewBus()
	send := b.Span("mpi", "rank0", "send\t1", 10, 40, Arg{Key: "bytes", Val: "4096"})
	recv := b.Span("cl", "q1", "recv \"x\"", 15, 60)
	mark := b.Instant("app", "rank1", "iter 0", 60)
	b.Instant("mpi", "rank0->rank1", "send posted", 10, Arg{Key: "bytes", Val: "4096"}, Arg{Key: "proto", Val: "eager"})
	b.Span("cluster", "node0.tx", "xfer", 12, 30, Arg{Key: "bytes", Val: "x"})
	b.Span("xfer", "p0", "wire.send", 12, 30, Arg{Key: "bytes", Val: "-1"})
	b.Edge(EdgeMsg, send, recv)
	b.Edge(EdgeQueue, recv, mark)
	var seed bytes.Buffer
	if err := b.WriteNative(&seed); err != nil {
		f.Fatalf("WriteNative: %v", err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		b1, err := ReadNative(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = b1.Metrics().Format()
		var out bytes.Buffer
		if err := b1.WriteNative(&out); err != nil {
			t.Fatalf("WriteNative: %v", err)
		}
		b2, err := ReadNative(&out)
		if err != nil {
			t.Fatalf("re-reading a written bus: %v\n%q", err, out.String())
		}
		if !reflect.DeepEqual(b1.Events(), b2.Events()) || !reflect.DeepEqual(b1.Edges(), b2.Edges()) {
			t.Fatalf("round trip changed the bus:\n%q", out.String())
		}
	})
}
