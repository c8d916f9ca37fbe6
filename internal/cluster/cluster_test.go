package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPresets(t *testing.T) {
	for name, sys := range Systems() {
		if sys.Name == "" || sys.MaxNodes < 1 {
			t.Errorf("%s: incomplete system %+v", name, sys)
		}
		if sys.GPU.PinnedBW <= sys.GPU.PageableBW {
			t.Errorf("%s: pinned PCIe (%g) should beat pageable (%g)", name, sys.GPU.PinnedBW, sys.GPU.PageableBW)
		}
		if sys.NIC.BW <= 0 || sys.GPU.SustainedGFLOPS <= 0 {
			t.Errorf("%s: non-positive rates", name)
		}
		if sys.DefaultStrategy == "" {
			t.Errorf("%s: missing default strategy", name)
		}
	}
}

func TestRegimes(t *testing.T) {
	ci, ricc := Cichlid(), RICC()
	// Cichlid is network-bound: GbE far below any PCIe rate.
	if ci.NIC.BW >= ci.GPU.PageableBW/2 {
		t.Errorf("Cichlid should be network-bound: NIC %g vs pageable %g", ci.NIC.BW, ci.GPU.PageableBW)
	}
	// RICC's network is within one order of magnitude of PCIe, so staging
	// choices matter (the Fig 8b regime).
	if ricc.NIC.BW < ricc.GPU.PinnedBW/8 {
		t.Errorf("RICC network too slow for the Fig 8b regime: %g vs %g", ricc.NIC.BW, ricc.GPU.PinnedBW)
	}
	// On RICC mapped must lose to pinned everywhere (Fig 8b).
	if ricc.GPU.MappedBW >= ricc.GPU.PinnedBW {
		t.Error("RICC mapped should be slower than pinned")
	}
	// On Cichlid the pinned setup dominates small transfers, mapped wins.
	if ci.GPU.PinSetup <= ci.GPU.MapSetup {
		t.Error("Cichlid pinned setup should exceed mapped setup")
	}
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	for _, n := range []int{0, -1, 5} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %d Cichlid nodes did not panic", n)
				}
			}()
			New(e, Cichlid(), n)
		}()
	}
}

func TestPCIeTime(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, RICC(), 2)
	nd := c.Nodes[0]
	g := nd.Sys.GPU
	n := int64(1 << 20)
	for _, kind := range []HostMemKind{Pageable, Pinned, Mapped} {
		got := nd.PCIeTime(n, kind)
		want := g.DMALatency + time.Duration(float64(n)/g.PCIeBW(kind)*1e9)
		if got != want {
			t.Errorf("PCIeTime(%v) = %v, want %v", kind, got, want)
		}
	}
	if nd.PCIeTime(0, Pinned) != g.DMALatency {
		t.Error("zero-byte transfer should cost only DMA latency")
	}
}

func TestPCIeContention(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Cichlid(), 1)
	nd := c.Nodes[0]
	per := nd.PCIeTime(1<<20, Pinned)
	for i := 0; i < 2; i++ {
		e.Spawn("dma", func(p *sim.Proc) { nd.HostToDevice(p, 1<<20, Pinned) })
	}
	// D2H is a separate resource: full duplex.
	e.Spawn("dma-back", func(p *sim.Proc) { nd.DeviceToHost(p, 1<<20, Pinned) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Now(), sim.Time(2*per); got != want {
		t.Fatalf("two H2D + one D2H finished at %v, want %v (H2D serialized, D2H parallel)", got, want)
	}
}

func TestNodesIndependentNICs(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, RICC(), 3)
	d := c.Nodes[0].TX.SerializationTime(1 << 20)
	for i := 0; i < 3; i++ {
		nd := c.Nodes[i]
		e.Spawn("tx", func(p *sim.Proc) { nd.TX.Occupy(p, nd.TX.SerializationTime(1<<20), "wire", 1<<20) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != sim.Time(d) {
		t.Fatalf("independent NICs serialized: end %v, want %v", e.Now(), d)
	}
}

func TestMemKindString(t *testing.T) {
	cases := map[HostMemKind]string{Pageable: "pageable", Pinned: "pinned", Mapped: "mapped", HostMemKind(9): "HostMemKind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestNetSendTime(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Cichlid(), 2)
	nd := c.Nodes[0]
	got := nd.NetSendTime(117e6) // exactly one second of wire time
	want := nd.Sys.NIC.MsgOverhead + time.Second
	if got != want {
		t.Fatalf("NetSendTime = %v, want %v", got, want)
	}
}
