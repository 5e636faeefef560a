package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"meshlayer"
	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
	"meshlayer/internal/cluster"
	"meshlayer/internal/hdr"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
	"meshlayer/internal/workload"
)

// A job is one seeded simulation. setup builds everything up to the
// first event and returns the run, which simulates, checks its own
// outputs and returns every deterministic value it produced. Keys
// starting with "sim." are simulated results; the rest are layer
// counters (see layerCounters). Two runs of the same job and seed
// must return identical maps.
type job struct {
	name  string
	setup func(seed int64) (run func() (map[string]float64, error))
}

// A workload is a fixed list of jobs plus a check across their
// results. check returns the name of the job it blames on failure.
type workloadDef struct {
	name  string
	jobs  []job
	check func(res map[string]map[string]float64) (blame string, err error)
}

var workloads = []workloadDef{paperMix(), rpcChain(), ctrlStorm()}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerCounters reads every layer's public counters after a run.
func layerCounters(out map[string]float64, sched *simnet.Scheduler, net *simnet.Network, m *mesh.Mesh) {
	out["simnet.events"] = float64(sched.Steps())
	out["sim.seconds"] = sched.Now().Seconds()
	var pkts, drops uint64
	for _, n := range net.Nodes() {
		for _, nic := range n.NICs() {
			pkts += nic.TxPackets()
			drops += nic.Drops()
		}
	}
	out["simnet.pkts"] = float64(pkts)
	out["simnet.drops"] = float64(drops)
	if fe := net.FlowEngine(); fe != nil {
		st := fe.Stats()
		out["flow.started"] = float64(st.Started)
		out["flow.demoted"] = float64(st.Demoted)
		out["flow.recomputes"] = float64(st.Recomputes)
	}
	reg := m.Metrics()
	out["mesh.requests"] = float64(reg.CounterTotal(mesh.MetricRequestsTotal))
	out["mesh.retries"] = float64(reg.CounterTotal(mesh.MetricRetriesTotal))
	for _, srv := range m.ControlPlane().Distributions() {
		st := srv.Stats()
		out["ctrlplane.pushes"] += float64(st.Pushes())
		out["ctrlplane.push_bytes"] += float64(st.WireBytes)
		out["ctrlplane.timeouts"] += float64(st.Timeouts)
		out["ctrlplane.resyncs"] += float64(st.Resyncs)
	}
	out["trace.spans"] = float64(m.Tracer().Len())
}

// ---------- paper-mix: the §4.3 experiment in E5's shape ----------

const (
	mixRPS     = 40
	mixWarmup  = 2 * time.Second
	mixMeasure = 6 * time.Second
)

// paperMix loads the packet path: the 2 MB LI responses through the
// 1 Gbps bottleneck make simnet, transport and tc the work.
func paperMix() workloadDef {
	rungs := []struct {
		name string
		opt  meshlayer.Optimization
	}{
		{"baseline", meshlayer.None()},
		{"routing", meshlayer.Optimization{Routing: true}},
		{"routing+tc", meshlayer.PaperOptimizations()},
		{"routing+tc+scavenger", meshlayer.Optimization{Routing: true, TC: true, Scavenger: true}},
		{"all", meshlayer.AllOptimizations()},
	}
	w := workloadDef{
		name: "paper-mix",
	}
	for _, r := range rungs {
		r := r
		w.jobs = append(w.jobs, job{name: r.name, setup: func(seed int64) func() (map[string]float64, error) {
			s := meshlayer.NewScenario(meshlayer.ScenarioConfig{Opt: r.opt, Seed: seed})
			return func() (map[string]float64, error) {
				res := s.RunMixed(meshlayer.MixedConfig{RPS: mixRPS, Seed: seed, Warmup: mixWarmup, Measure: mixMeasure})
				out := map[string]float64{
					"sim.ls_p50_ms": ms(res.LS.P50),
					"sim.ls_p99_ms": ms(res.LS.P99),
					"sim.li_p99_ms": ms(res.LI.P99),
					"sim.ls_count":  float64(res.LS.Count),
					"sim.li_count":  float64(res.LI.Count),
					"sim.errors":    float64(res.LS.Errors + res.LI.Errors),
					"sim.requests":  float64(res.LS.Count + res.LI.Count),
				}
				layerCounters(out, s.App.Sched, s.App.Net, s.App.Mesh)
				switch {
				case res.LS.Count == 0 || res.LI.Count == 0:
					return out, fmt.Errorf("no completions (LS %d, LI %d)", res.LS.Count, res.LI.Count)
				case res.LS.Errors+res.LI.Errors > 0:
					return out, fmt.Errorf("%d LS and %d LI errors", res.LS.Errors, res.LI.Errors)
				}
				return out, nil
			}
		}})
	}
	// The paper's Fig. 4 direction: prioritization cuts the LS tail.
	w.check = func(res map[string]map[string]float64) (string, error) {
		base, opt := res["baseline"]["sim.ls_p99_ms"], res["routing+tc"]["sim.ls_p99_ms"]
		if opt >= base {
			return "routing+tc", fmt.Errorf("routing+tc LS p99 %.3f ms not below baseline %.3f ms", opt, base)
		}
		return "", nil
	}
	return w
}

// ---------- rpc-chain: E9's closed loop through deep chains ----------

const chainRequests = 3000

// rpcChain loads the sidecar hop: mesh, cluster endpoint reads,
// httpsim and metrics, with no qdisc and no bulk transport.
func rpcChain() workloadDef {
	w := workloadDef{
		name: "rpc-chain",
	}
	for _, depth := range []int{8, 32} {
		depth := depth
		w.jobs = append(w.jobs, job{name: fmt.Sprintf("depth%d", depth), setup: func(seed int64) func() (map[string]float64, error) {
			c := app.BuildChain(app.ChainConfig{Depth: depth, Mesh: mesh.Config{Seed: seed}})
			return func() (map[string]float64, error) {
				think := rand.New(rand.NewSource(seed))
				lat := hdr.New()
				done, bad := 0, 0
				var next func(i int)
				next = func(i int) {
					if i >= chainRequests {
						return
					}
					start := c.Sched.Now()
					c.Gateway.Serve(app.NewChainRequest(), func(resp *httpsim.Response, err error) {
						lat.RecordDuration(c.Sched.Now() - start)
						done++
						if err != nil || resp == nil || resp.Status != httpsim.StatusOK {
							bad++
						}
						gap := time.Duration((0.5 + think.Float64()) * float64(time.Millisecond))
						c.Sched.After(gap, func() { next(i + 1) })
					})
				}
				next(0)
				// Hang guard in simulated time: a healthy run finishes far
				// inside this horizon and leaves no event behind.
				c.Sched.RunUntil(time.Duration(chainRequests) * (5*time.Millisecond + time.Duration(depth)*2*time.Millisecond))
				out := map[string]float64{
					"sim.p50_ms":   ms(lat.QuantileDuration(0.50)),
					"sim.p99_ms":   ms(lat.QuantileDuration(0.99)),
					"sim.requests": float64(done),
					"sim.errors":   float64(bad),
				}
				layerCounters(out, c.Sched, c.Cluster.Network(), c.Mesh)
				switch {
				case done != chainRequests:
					return out, fmt.Errorf("%d of %d requests completed", done, chainRequests)
				case bad > 0:
					return out, fmt.Errorf("%d requests did not return 200", bad)
				case c.Sched.Pending() != 0:
					return out, fmt.Errorf("scheduler did not drain: %d events pending", c.Sched.Pending())
				}
				return out, nil
			}
		}})
	}
	return w
}

// ---------- ctrl-storm: E21's deploy storm + control-plane crash ----------

const (
	stormSubs        = 1000
	stormPodsPerSvc  = 20
	stormFrontends   = 8
	stormWarmup      = time.Second
	stormMeasure     = 12 * time.Second
	stormMinAvail    = 0.975
	stormRequestRate = 100
)

type stormRung struct {
	name     string
	backoff  bool
	inflight int
	resyncs  int
	// mustRecover marks the rungs E21 shows converging within the run.
	mustRecover bool
}

// ctrlStorm runs the same mesh and cluster code for config writes
// instead of request reads, and is the only workload that uses the
// ctrlplane push path and the FlowEngine.
func ctrlStorm() workloadDef {
	rungs := []stormRung{
		{name: "L0"},
		{name: "L1", backoff: true},
		{name: "L2", backoff: true, inflight: 256, mustRecover: true},
		{name: "L3", backoff: true, inflight: 256, resyncs: 64, mustRecover: true},
	}
	w := workloadDef{
		name: "ctrl-storm",
	}
	for _, r := range rungs {
		r := r
		w.jobs = append(w.jobs, job{name: r.name, setup: func(seed int64) func() (map[string]float64, error) {
			return setupStorm(r, seed)
		}})
	}
	return w
}

// setupStorm assembles E21's shape from the cluster, mesh, ctrlplane
// and chaos packages for one defence rung.
func setupStorm(def stormRung, seed int64) func() (map[string]float64, error) {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	net.SetFidelity(simnet.FidelityHybrid)
	cl := cluster.New(net)

	shards := stormSubs / stormPodsPerSvc
	shardSvc := func(k int) string { return fmt.Sprintf("w%03d", k) }

	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	m := mesh.New(cl, mesh.Config{Seed: seed})
	gw := m.NewGateway(gwPod)

	for i := 0; i < stormFrontends; i++ {
		pod := cl.AddPod(cluster.PodSpec{
			Name:    fmt.Sprintf("frontend-%d", i),
			Labels:  map[string]string{"app": "frontend"},
			Workers: 8,
		})
		sc := m.InjectSidecar(pod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			target := "w" + strings.TrimPrefix(req.Path, "/s/")
			pod.Exec(time.Millisecond, func() {
				child := httpsim.NewRequest("GET", req.Path)
				child.Headers.Set(mesh.HeaderHost, target)
				sc.Call(child, func(resp *httpsim.Response, err error) {
					if err != nil {
						respond(httpsim.NewResponse(httpsim.StatusBadGateway))
						return
					}
					out := httpsim.NewResponse(resp.Status)
					out.BodyBytes = 512
					respond(out)
				})
			})
		})
	}
	cl.AddService("frontend", 9080, map[string]string{"app": "frontend"})

	for k := 0; k < shards; k++ {
		svc := shardSvc(k)
		for i := 0; i < stormPodsPerSvc; i++ {
			pod := cl.AddPod(cluster.PodSpec{
				Name:   fmt.Sprintf("%s-%d", svc, i),
				Labels: map[string]string{"app": svc},
			})
			sc := m.InjectSidecar(pod)
			sc.RegisterApp(func(_ *httpsim.Request, respond func(*httpsim.Response)) {
				pod.Exec(2*time.Millisecond, func() {
					out := httpsim.NewResponse(httpsim.StatusOK)
					out.BodyBytes = 2 << 10
					respond(out)
				})
			})
		}
		cl.AddService(svc, 9080, map[string]string{"app": svc})
	}

	cp := m.ControlPlane()
	cp.SetRetryPolicy("frontend", mesh.RetryPolicy{PerTryTimeout: time.Second})
	for k := 0; k < shards; k++ {
		cp.SetRetryPolicy(shardSvc(k), mesh.RetryPolicy{PerTryTimeout: 500 * time.Millisecond})
	}

	// E21's provisioning: one whole-fleet full-state resync takes ~4 s
	// of control-plane egress, twice the push timeout.
	nSubs := stormSubs + stormFrontends + 1
	fullBytes := 64 + shards*(24+48+24*stormPodsPerSvc+40) + (24 + 48 + 24*stormFrontends + 40)
	cpRate := int64(fullBytes) * int64(nSubs) * 8 / 4
	if cpRate < simnet.Mbps {
		cpRate = simnet.Mbps
	}
	dc := mesh.DistributionConfig{
		Debounce:      200 * time.Millisecond,
		PushTimeout:   2 * time.Second,
		ResyncDelay:   500 * time.Millisecond,
		GateReadiness: true,
		Link:          simnet.LinkConfig{Rate: cpRate, Delay: 100 * time.Microsecond},
	}
	if def.backoff {
		dc.ResyncMax = 8 * time.Second
		dc.ResyncJitter = 1.0
	}
	dc.MaxInflightPushes = def.inflight
	dc.MaxConcurrentResyncs = def.resyncs
	cp.EnableDistribution(dc)

	stormAt := stormWarmup + stormMeasure/10
	stormLen := stormMeasure / 2
	crashAt := stormAt + stormLen/4
	outage := stormMeasure / 6
	recoverAt := crashAt + outage
	stormEnd := stormAt + stormLen
	stagger := stormLen / time.Duration(shards)
	events := make([]chaos.Event, 0, shards+1)
	for k := 0; k < shards; k++ {
		events = append(events, chaos.Event{
			At: stormAt + time.Duration(k)*stagger, Duration: time.Second,
			Fault: chaos.Restart{Pod: shardSvc(k) + "-1", Grace: 200 * time.Millisecond, Resubscribe: true},
		})
	}
	events = append(events, chaos.Event{At: crashAt, Duration: outage, Fault: chaos.ControlPlaneCrash{}})
	eng := chaos.NewEngine(&chaos.Target{Sched: sched, Cluster: cl, Mesh: m})
	eng.Schedule(chaos.Scenario{Name: "ctrl-storm", Events: events})

	srv := cp.Distribution()
	recoveredAt := time.Duration(-1)
	horizon := stormWarmup + stormMeasure
	var probe func()
	probe = func() {
		if srv.UnsyncedCount() == 0 {
			recoveredAt = sched.Now()
			return
		}
		if sched.Now() >= horizon {
			return
		}
		sched.After(100*time.Millisecond, probe)
	}
	sched.After(recoverAt+100*time.Millisecond, probe)

	rec := chaos.NewRecorder(stormMeasure / 40)
	reqN := 0
	g := workload.Start(sched, gw, workload.Spec{
		Name: "ctrl-storm", Rate: stormRequestRate, Seed: seed + 11,
		NewRequest: func() *httpsim.Request {
			k := reqN % shards
			reqN++
			r := httpsim.NewRequest("GET", fmt.Sprintf("/s/%03d", k))
			r.Headers.Set(mesh.HeaderHost, "frontend")
			return r
		},
		Warmup: stormWarmup, Measure: stormMeasure, Cooldown: time.Second,
		OnComplete: rec.Observe,
	})
	return func() (map[string]float64, error) {
		sched.RunFor(stormWarmup + stormMeasure + 3*time.Second)

		avail := func(from, to time.Duration) float64 {
			ok, fail := rec.Counts(from, to)
			if ok+fail == 0 {
				return 1
			}
			return float64(ok) / float64(ok+fail)
		}
		recovery := -1.0
		if recoveredAt >= 0 {
			recovery = ms(recoveredAt - recoverAt)
		}
		res := g.Results()
		out := map[string]float64{
			"sim.recovery_ms": recovery,
			"sim.avail":       avail(stormWarmup, horizon),
			"sim.tail_avail":  avail(crashAt, stormEnd),
			"sim.req_p99_ms":  ms(res.P99()),
			"sim.requests":    float64(res.Completed),
		}
		layerCounters(out, sched, net, m)
		out["sim.push_timeouts"] = out["ctrlplane.timeouts"]
		switch {
		case def.mustRecover && recoveredAt < 0:
			return out, fmt.Errorf("control plane did not reconverge within the run")
		case out["sim.avail"] < stormMinAvail:
			return out, fmt.Errorf("availability %.4f below %.3f", out["sim.avail"], stormMinAvail)
		}
		return out, nil
	}
}
