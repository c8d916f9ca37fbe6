package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadNative: ReadNative never panics, and any bus it accepts survives
// WriteNative → ReadNative unchanged. Run with
//
//	go test -run '^$' -fuzz FuzzReadNative -fuzztime 10s ./internal/trace/
func FuzzReadNative(f *testing.F) {
	b := NewBus()
	send := b.Span("mpi", "rank0", "send\t1", 10, 40, Arg{Key: "bytes", Val: "4096"})
	recv := b.Span("cl", "q1", "recv \"x\"", 15, 60)
	mark := b.Instant("app", "rank1", "iter 0", 60)
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
