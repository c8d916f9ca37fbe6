package sim_test

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Example shows the DES kernel's shape: processes are goroutines that
// cooperate with a virtual clock, and a whole simulated second costs
// microseconds of host time.
func Example() {
	eng := sim.NewEngine()
	done := sim.NewTrigger(eng, "result ready")

	eng.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(1 * time.Second) // virtual time, not host time
		done.Fire(42)
	})
	eng.Spawn("consumer", func(p *sim.Proc) {
		v := done.Wait(p)
		fmt.Printf("got %v at virtual t=%v\n", v, p.Now())
	})

	if err := eng.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output: got 42 at virtual t=1s
}

// ExampleEngine_Run_deadlock shows the deadlock detector, which turns
// scheduling bugs (the class of bug the clMPI paper is about) into explicit
// errors instead of hangs.
func ExampleEngine_Run_deadlock() {
	eng := sim.NewEngine()
	never := sim.NewTrigger(eng, "never fired")
	eng.Spawn("stuck", func(p *sim.Proc) { never.Wait(p) })

	err := eng.Run()
	fmt.Println(err)
	// Output: sim: deadlock at 0s; blocked: stuck (trigger never fired)
}

// ExampleLink shows bandwidth-limited FIFO resources: two transfers on one
// link serialize.
func ExampleLink() {
	eng := sim.NewEngine()
	link := sim.NewLink(eng, "nic", 100e6) // 100 MB/s
	for i := 0; i < 2; i++ {
		eng.Spawn("sender", func(p *sim.Proc) {
			link.Occupy(p, link.SerializationTime(50e6), "xfer", 50e6) // 50 MB → 500 ms each
		})
	}
	eng.Run()
	fmt.Println("both done at", eng.Now())
	// Output: both done at 1s
}
