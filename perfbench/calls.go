package main

import (
	"fmt"
	"runtime"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/cluster"
	"meshlayer/internal/ctrlplane"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/metrics"
	"meshlayer/internal/simnet"
	"meshlayer/internal/tc"
	"meshlayer/internal/transport"
)

// A callBench times one layer's public hot entry point. build sets up
// the layer and returns run, which performs n operations and reports
// an error if any of them did not complete as expected.
type callBench struct {
	name  string // metric stem: call.<name>_ns, and _b, _allocs if mem
	ops   int
	mem   bool
	build func() (run func(n int) error)
}

// callReps measures each call this many times; each metric is the
// median.
const callReps = 3

var callBenches = []callBench{
	// Layers paper-mix loads most: scheduler, packet path, tc, transport.
	{"sched", 400_000, false, benchSched},
	{"pkt_path", 200_000, true, benchPacketPath(false)},
	{"nearstrict", 200_000, false, benchPacketPath(true)},
	{"msg_rtt", 20_000, true, benchMsgRTT},
	// rpc-chain: httpsim, one sidecar hop, metrics, endpoint reads.
	{"http_rtt", 20_000, true, benchHTTPRTT},
	{"hop", 4_000, true, benchHop},
	{"observe", 200_000, true, benchObserve},
	{"endpoints", 200_000, false, benchEndpoints(10)},
	// ctrl-storm: endpoint recompute at scale, config fan-out, flows.
	{"endpoints_1k", 2_000, false, benchEndpoints(1000)},
	{"fanout", 50, false, benchFanout},
	{"flow", 20_000, false, benchFlow},
}

// callMetrics lists every call.* metric name.
var callMetrics = func() []string {
	var out []string
	for _, b := range callBenches {
		out = append(out, "call."+b.name+"_ns")
		if b.mem {
			out = append(out, "call."+b.name+"_b", "call."+b.name+"_allocs")
		}
	}
	return out
}()

// runCalls measures every call bench. B/op and allocs/op are exact
// quotients, never rounded to whole numbers.
func runCalls() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, b := range callBenches {
		run := b.build()
		if err := run(b.ops / 10); err != nil { // warm up
			return nil, fmt.Errorf("call.%s: %w", b.name, err)
		}
		var ns, bytes, allocs []float64
		for r := 0; r < callReps; r++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			err := run(b.ops)
			dt := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("call.%s: %w", b.name, err)
			}
			ns = append(ns, float64(dt.Nanoseconds())/float64(b.ops))
			bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.ops))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(b.ops))
		}
		out["call."+b.name+"_ns"] = median(ns)
		if b.mem {
			out["call."+b.name+"_b"] = median(bytes)
			out["call."+b.name+"_allocs"] = median(allocs)
		}
	}
	return out, nil
}

// benchSched: one Scheduler.After plus the Step that dispatches it,
// over a steady population of 1024 pending timers.
func benchSched() func(int) error {
	s := simnet.NewScheduler()
	left, i := 0, 0
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			i++
			s.After(time.Duration(i%13+1)*time.Microsecond, tick)
		}
	}
	return func(n int) error {
		before := s.Steps()
		left = n
		for k := 0; k < 1024 && left > 0; k++ {
			tick()
		}
		for s.Step() {
		}
		if got := s.Steps() - before; got != uint64(n) {
			return fmt.Errorf("dispatched %d events, want %d", got, n)
		}
		return nil
	}
}

// benchPacketPath: Node.Inject to local delivery over one 15 Gbps
// link with 64 packets in flight, through the default FIFO or through
// the paper's near-strict priority qdisc (half the packets marked high).
func benchPacketPath(nearStrict bool) func() func(int) error {
	return func() func(int) error {
		s := simnet.NewScheduler()
		net := simnet.NewNetwork(s)
		na, nb := net.AddNode("a"), net.AddNode("b")
		link := net.Connect(na, nb, simnet.LinkConfig{Rate: 15 * simnet.Gbps, Delay: 10 * time.Microsecond})
		if nearStrict {
			link.A().SetQdisc(tc.NewNearStrict(tc.NearStrictConfig{LinkRate: 15 * simnet.Gbps, HighShare: 0.95}, s.Now))
		}
		flow := simnet.FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: simnet.ProtoUDP}
		sent, delivered, total := 0, 0, 0
		var send func()
		send = func() {
			for sent < total && sent-delivered < 64 {
				p := net.AllocPacket()
				p.Flow = flow
				p.Size = simnet.MTU
				if nearStrict && sent%2 == 0 {
					p.Mark = simnet.MarkHigh
				}
				na.Inject(p)
				sent++
			}
		}
		nb.SetDeliver(func(*simnet.Packet) { delivered++; send() })
		return func(n int) error {
			total += n
			send()
			s.Run()
			if delivered != total {
				return fmt.Errorf("delivered %d packets, want %d", delivered, total)
			}
			return nil
		}
	}
}

// pair is two transport hosts on one 15 Gbps link.
func pair() (*simnet.Scheduler, *transport.Host, *transport.Host) {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	a, b := net.AddNode("a"), net.AddNode("b")
	net.Connect(a, b, simnet.LinkConfig{Rate: 15 * simnet.Gbps, Delay: 10 * time.Microsecond})
	return s, transport.NewHost(a), transport.NewHost(b)
}

// benchMsgRTT: one 100-byte transport message echoed back.
func benchMsgRTT() func(int) error {
	s, ha, hb := pair()
	// A failed send shows as a missing round trip in run's count, so
	// the send errors below are not checked one by one.
	_, err := hb.Listen(80, func(c *transport.Conn) {
		c.SetOnMessage(func(meta any, size int) { _ = c.SendMessage(meta, size) })
	})
	c := ha.Dial(hb.Node().Addr(), 80, transport.Options{})
	left, done := 0, 0
	c.SetOnMessage(func(meta any, size int) {
		done++
		if left > 0 {
			left--
			_ = c.SendMessage(nil, 100)
		}
	})
	return func(n int) error {
		if err != nil {
			return err
		}
		done, left = 0, n-1
		if err := c.SendMessage(nil, 100); err != nil {
			return err
		}
		s.Run()
		if done != n {
			return fmt.Errorf("%d of %d round trips completed", done, n)
		}
		return nil
	}
}

// benchHTTPRTT: one httpsim request and its 200 response.
func benchHTTPRTT() func(int) error {
	s, ha, hb := pair()
	_, err := httpsim.NewServer(hb, 8080, func(_ httpsim.Ctx, _ *httpsim.Request, respond func(*httpsim.Response)) {
		respond(httpsim.NewResponse(httpsim.StatusOK))
	})
	cl := httpsim.NewClient(ha, hb.Node().Addr(), 8080, transport.Options{})
	left, ok := 0, 0
	var do func()
	do = func() {
		cl.Do(httpsim.NewRequest("GET", "/"), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				ok++
			}
			if left--; left > 0 {
				do()
			}
		})
	}
	return func(n int) error {
		if err != nil {
			return err
		}
		left, ok = n, 0
		do()
		s.Run()
		if ok != n {
			return fmt.Errorf("%d of %d requests returned 200", ok, n)
		}
		return nil
	}
}

// benchHop: one request through a depth-1 chain, i.e. the gateway and
// one sidecar hop.
func benchHop() func(int) error {
	c := app.BuildChain(app.ChainConfig{Depth: 1})
	left, ok := 0, 0
	var do func()
	do = func() {
		c.Gateway.Serve(app.NewChainRequest(), func(r *httpsim.Response, err error) {
			if err == nil && r.Status == httpsim.StatusOK {
				ok++
			}
			if left--; left > 0 {
				do()
			}
		})
	}
	return func(n int) error {
		left, ok = n, 0
		do()
		c.Sched.Run()
		if ok != n {
			return fmt.Errorf("%d of %d requests returned 200", ok, n)
		}
		return nil
	}
}

const observeMetric = "perfbench_call_duration"

// benchObserve: Registry.ObserveDuration on a three-label series.
func benchObserve() func(int) error {
	reg := metrics.NewRegistry()
	labels := metrics.Labels{"service": "reviews", "code": "200", "class": "ls"}
	return func(n int) error {
		before := reg.Histogram(observeMetric, labels).Count()
		for i := 0; i < n; i++ {
			reg.ObserveDuration(observeMetric, labels, time.Duration(i)*time.Microsecond)
		}
		if got := reg.Histogram(observeMetric, labels).Count() - before; got != uint64(n) {
			return fmt.Errorf("recorded %d observations, want %d", got, n)
		}
		return nil
	}
}

// benchEndpoints: cluster.Service.Endpoints on a service of pods pods.
func benchEndpoints(pods int) func() func(int) error {
	return func() func(int) error {
		cl := cluster.New(simnet.NewNetwork(simnet.NewScheduler()))
		sel := map[string]string{"app": "svc"}
		for i := 0; i < pods; i++ {
			cl.AddPod(cluster.PodSpec{Name: fmt.Sprintf("svc-%d", i), Labels: sel})
		}
		svc := cl.AddService("svc", 9080, sel)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if got := len(svc.Endpoints()); got != pods {
					return fmt.Errorf("%d endpoints, want %d", got, pods)
				}
			}
			return nil
		}
	}
}

// fanoutSubs is the subscriber count of the fan-out bench.
const fanoutSubs = 1000

// acker acknowledges every push 50 µs after it is sent.
type acker struct{ s *simnet.Scheduler }

func (a acker) Push(_ string, _ *ctrlplane.Update, done func(ack bool, err error)) {
	a.s.After(50*time.Microsecond, func() { done(true, nil) })
}

// benchFanout: ctrlplane SetResource+Flush pushed to fanoutSubs
// subscribers and acknowledged.
func benchFanout() func(int) error {
	s := simnet.NewScheduler()
	srv := ctrlplane.NewServer(ctrlplane.Config{Sched: s, Transport: acker{s}})
	for i := 0; i < fanoutSubs; i++ {
		srv.Subscribe(fmt.Sprintf("sub-%d", i))
	}
	version := 0
	return func(n int) error {
		before := srv.Stats().Acks
		for i := 0; i < n; i++ {
			version++
			srv.SetResource("route", version, 256)
			srv.Flush()
			s.Run()
		}
		if got := srv.Stats().Acks - before; got != uint64(n*fanoutSubs) {
			return fmt.Errorf("%d acks, want %d", got, n*fanoutSubs)
		}
		return nil
	}
}

// benchFlow: FlowEngine.Start of one 1 MB flow and its completion, 16
// flows sharing a two-hop path at a time.
func benchFlow() func(int) error {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	net.SetFidelity(simnet.FidelityFlow)
	na, sw, nb := net.AddNode("a"), net.AddNode("sw"), net.AddNode("b")
	net.Connect(na, sw, simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 10 * time.Microsecond})
	net.Connect(sw, nb, simnet.LinkConfig{Rate: 10 * simnet.Gbps, Delay: 10 * time.Microsecond})
	eng := net.FlowEngine()
	path, _, ok := eng.ResolvePath(na, simnet.FlowKey{Src: na.Addr(), Dst: nb.Addr()})
	left := 0
	var start func()
	start = func() {
		if left > 0 {
			left--
			eng.Start(path, 1<<20, start, nil)
		}
	}
	return func(n int) error {
		if !ok {
			return fmt.Errorf("no fluid path")
		}
		before := eng.Stats().Completed
		left = n
		for k := 0; k < 16; k++ {
			start()
		}
		s.Run()
		if got := eng.Stats().Completed - before; got != uint64(n) {
			return fmt.Errorf("completed %d flows, want %d", got, n)
		}
		return nil
	}
}
