package simnet

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkScheduler measures the event-loop hot path: a steady
// population of outstanding timers, each firing and rescheduling
// itself, so every iteration is one schedule + one heap pop + one
// dispatch. This is the engine cost under every experiment in the
// repo; events/sec here is the ceiling on simulated traffic.
func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler()
	const population = 1024
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < b.N {
			scheduled++
			s.After(time.Duration(scheduled%13+1)*time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < population && scheduled < b.N; i++ {
		scheduled++
		s.After(time.Duration(i%13+1)*time.Microsecond, tick)
	}
	s.Run()
	b.StopTimer()
	if got := s.Steps(); got != uint64(scheduled) {
		b.Fatalf("executed %d events, scheduled %d", got, scheduled)
	}
}

// BenchmarkSchedulerCancel measures timer churn: schedule + cancel
// without firing, the retry-timer pattern that dominates chaos runs.
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Duration(i%977+1)*time.Microsecond, fn)
		t.Cancel()
		if i%1024 == 1023 {
			// Drain occasionally so the heap reflects steady-state
			// cancelled-event handling, not unbounded growth.
			s.RunFor(time.Microsecond)
		}
	}
	b.StopTimer()
	s.Run()
}

// BenchmarkPacketPath measures the packet hot path end to end: inject
// -> route -> qdisc -> serialize at line rate -> propagate -> deliver,
// with a fixed window of packets in flight over one 15 Gbps link.
func BenchmarkPacketPath(b *testing.B) {
	r := newPacketRig(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	r.run(b.N)
	b.StopTimer()
}

// BenchmarkFlowScheduler measures the flow-engine hot path: a steady
// population of fluid flows arriving, sharing a two-hop path, and
// completing, so every iteration is one Start + its share of the
// batched recompute + one completion dispatch. ns/op here is the cost
// of simulating one entire bulk transfer under flow fidelity — compare
// against BenchmarkPacketPath times the packets such a transfer needs.
func BenchmarkFlowScheduler(b *testing.B) {
	s := NewScheduler()
	net := NewNetwork(s)
	net.SetFidelity(FidelityFlow)
	na, sw, nb := net.AddNode("a"), net.AddNode("sw"), net.AddNode("b")
	net.Connect(na, sw, LinkConfig{Rate: 10 * Gbps, Delay: 10 * time.Microsecond})
	net.Connect(sw, nb, LinkConfig{Rate: 10 * Gbps, Delay: 10 * time.Microsecond})
	eng := net.FlowEngine()
	path, _, ok := eng.ResolvePath(na, FlowKey{Src: na.Addr(), Dst: nb.Addr()})
	if !ok {
		b.Fatal("no path")
	}
	const population = 16
	started := 0
	var onDone func()
	start := func() {
		if started < b.N {
			started++
			eng.Start(path, 1<<20, onDone, nil)
		}
	}
	onDone = start
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < population && started < b.N; i++ {
		start()
	}
	s.Run()
	b.StopTimer()
	if got := eng.Stats().Completed; got != uint64(b.N) {
		b.Fatalf("completed %d flows, want %d", got, b.N)
	}
}

// BenchmarkHybridPacketPath measures the packet hot path with the
// hybrid flow engine armed and fluid resident on the link: every
// packet pays the residual-rate serialization coupling plus the
// contention sensor. The delta against BenchmarkPacketPath is the
// per-packet cost of hybrid fidelity.
func BenchmarkHybridPacketPath(b *testing.B) {
	r := newPacketRig(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	r.run(b.N)
	b.StopTimer()
}

// packetRig keeps a window of MTU packets in flight from a to b over a
// 15 Gbps link. In hybrid mode a long-lived fluid flow crosses the same
// link, bottlenecked by its 1 Gbps first hop so that its share stays
// below the demotion threshold while every packet pays the coupled
// serialization.
type packetRig struct {
	tb      testing.TB
	s       *Scheduler
	net     *Network
	src     *Node
	flow    FlowKey
	window  int
	hybrid  bool
	sent    int
	target  int
	deliver int
}

func newPacketRig(tb testing.TB, hybrid bool) *packetRig {
	s := NewScheduler()
	net := NewNetwork(s)
	r := &packetRig{tb: tb, s: s, net: net, window: 64, hybrid: hybrid}
	if hybrid {
		net.SetFidelity(FidelityHybrid)
		// 16-packet window: a deeper burst would cross DemoteBacklog
		// and evict the resident flow.
		r.window = 16
	}
	na, nb := net.AddNode("a"), net.AddNode("b")
	net.Connect(na, nb, LinkConfig{Rate: 15 * Gbps, Delay: 10 * time.Microsecond})
	if hybrid {
		nc := net.AddNode("c")
		net.Connect(nc, na, LinkConfig{Rate: 1 * Gbps, Delay: 10 * time.Microsecond})
		eng := net.FlowEngine()
		fpath, _, ok := eng.ResolvePath(nc, FlowKey{Src: nc.Addr(), Dst: nb.Addr()})
		if !ok {
			tb.Fatal("no fluid path")
		}
		eng.Start(fpath, 1<<50, nil, nil)
	}
	r.src = na
	r.flow = FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	nb.SetDeliver(func(p *Packet) { r.deliver++; r.send() })
	return r
}

func (r *packetRig) send() {
	for r.sent < r.target && r.sent-r.deliver < r.window {
		p := r.net.AllocPacket()
		p.Flow = r.flow
		p.Size = MTU
		r.src.Inject(p)
		r.sent++
	}
}

// run pushes n more packets through and returns once all of them are
// delivered.
func (r *packetRig) run(n int) {
	r.target += n
	r.send()
	for r.deliver < r.target && r.s.Step() {
	}
	if r.deliver != r.target {
		r.tb.Fatalf("delivered %d packets, want %d", r.deliver, r.target)
	}
	if r.hybrid && r.net.FlowEngine().Stats().Demoted != 0 {
		r.tb.Fatal("fluid flow demoted: the rig must measure coexistence, not demotion")
	}
}

// TestPacketPathAllocatesNothing pins the packet hot path of both
// benchmarks above at zero heap bytes per packet. It reads the exact
// TotalAlloc delta over many packets after a warm-up, so a leak of a
// few bytes per packet (a slide-forward queue reallocating on refill)
// fails instead of rounding to "0 allocs/op".
func TestPacketPathAllocatesNothing(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		r := newPacketRig(t, hybrid)
		r.run(5000) // warm-up: the packet pool, rings and heap fill
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const n = 50000
		r.run(n)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d != 0 {
			t.Errorf("hybrid=%v: %d bytes allocated over %d packets (%.3f B/packet), want 0",
				hybrid, d, n, float64(d)/n)
		}
	}
}
