package meshlayer

import (
	"fmt"
	"strings"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/asciiplot"
	"meshlayer/internal/chaos"
	"meshlayer/internal/cluster"
	"meshlayer/internal/hdr"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
	"meshlayer/internal/tc"
	"meshlayer/internal/transport"
	"meshlayer/internal/workload"
)

// This file contains one runner per experiment in DESIGN.md's index.
// Each returns typed rows plus has a Format* companion that renders
// the table cmd/meshbench prints (and EXPERIMENTS.md records).

// ---------- E1/E2/E3: Fig. 4 sweep ----------

// SweepPoint is one RPS level measured with and without cross-layer
// optimization.
type SweepPoint struct {
	RPS       float64
	Base, Opt MixedResult
}

// SweepConfig parameterizes RunSweep.
type SweepConfig struct {
	// RPSLevels are the per-workload arrival rates (paper: 10..50).
	RPSLevels []float64
	// Opt is the optimization set compared against baseline.
	Opt Optimization
	// Seed and the window sizes are shared across levels.
	Seed                      int64
	Warmup, Measure, Cooldown time.Duration
	// Workers bounds this sweep's run concurrency; 0 means MaxParallel,
	// 1 forces sequential execution. Output is identical either way.
	Workers int
}

// DefaultSweepConfig mirrors Fig. 4: RPS 10..50, the paper's
// prototype optimizations (routing + TC).
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		RPSLevels: []float64{10, 20, 30, 40, 50},
		Opt:       PaperOptimizations(),
	}
}

// RunSweep reproduces the Fig. 4 experiment: for each RPS level, one
// baseline run and one optimized run of the mixed workload.
func RunSweep(cfg SweepConfig) []SweepPoint {
	if len(cfg.RPSLevels) == 0 {
		cfg.RPSLevels = DefaultSweepConfig().RPSLevels
	}
	if !cfg.Opt.Any() {
		cfg.Opt = PaperOptimizations()
	}
	base, opt := baseAndOpt(len(cfg.RPSLevels), cfg.Workers, cfg.Opt, func(i int, opt Optimization) MixedResult {
		return RunMixedOnce(opt, MixedConfig{RPS: cfg.RPSLevels[i], Seed: cfg.Seed, Warmup: cfg.Warmup, Measure: cfg.Measure, Cooldown: cfg.Cooldown})
	})
	out := make([]SweepPoint, len(cfg.RPSLevels))
	for i, rps := range cfg.RPSLevels {
		out[i] = SweepPoint{RPS: rps, Base: base[i], Opt: opt[i]}
	}
	return out
}

// baseAndOpt runs run(i, None()) and run(i, opt) for every point i < n.
// Each (point, arm) pair is an independent simulation, so all 2n run
// concurrently on a pool of workers (0 = MaxParallel).
func baseAndOpt(n, workers int, opt Optimization, run func(i int, opt Optimization) MixedResult) (base, optimized []MixedResult) {
	base, optimized = make([]MixedResult, n), make([]MixedResult, n)
	runIndexedWorkers(2*n, workers, func(k int) {
		if k%2 == 0 {
			base[k/2] = run(k/2, None())
		} else {
			optimized[k/2] = run(k/2, opt)
		}
	})
	return base, optimized
}

// FormatFig4 renders the latency-sensitive series of the sweep — the
// four curves of the paper's Fig. 4 — plus the speedup columns (the
// §4.3 "≈1.5x" claim, E3).
func FormatFig4(points []SweepPoint) string {
	t := newTable("RPS", "base p50", "opt p50", "x p50", "base p99", "opt p99", "x p99")
	for _, p := range points {
		t.row(
			fmt.Sprintf("%.0f", p.RPS),
			ms(p.Base.LS.P50), ms(p.Opt.LS.P50), ratio(p.Base.LS.P50, p.Opt.LS.P50),
			ms(p.Base.LS.P99), ms(p.Opt.LS.P99), ratio(p.Base.LS.P99, p.Opt.LS.P99),
		)
	}
	return "Fig. 4 — latency-sensitive HTTP request latency vs offered load\n" + t.String()
}

// FormatLICost renders the latency-insensitive side of the sweep — the
// E2 "<5% p99 increase" claim.
func FormatLICost(points []SweepPoint) string {
	t := newTable("RPS", "base p50", "opt p50", "base p99", "opt p99", "p99 delta")
	for _, p := range points {
		delta := "n/a"
		if p.Base.LI.P99 > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(float64(p.Opt.LI.P99)/float64(p.Base.LI.P99)-1))
		}
		t.row(
			fmt.Sprintf("%.0f", p.RPS),
			ms(p.Base.LI.P50), ms(p.Opt.LI.P50),
			ms(p.Base.LI.P99), ms(p.Opt.LI.P99), delta,
		)
	}
	return "E2 — latency-insensitive workload cost of prioritization\n" + t.String()
}

// ChartFig4 renders the sweep as an ASCII line chart — the visual form
// of the paper's Figure 4.
func ChartFig4(points []SweepPoint) string {
	var xs, basep50, optp50, basep99, optp99 []float64
	for _, p := range points {
		xs = append(xs, p.RPS)
		basep50 = append(basep50, msFloat(p.Base.LS.P50))
		optp50 = append(optp50, msFloat(p.Opt.LS.P50))
		basep99 = append(basep99, msFloat(p.Base.LS.P99))
		optp99 = append(optp99, msFloat(p.Opt.LS.P99))
	}
	c := asciiplot.Chart{
		Title:  "Fig. 4 — latency-sensitive request latency vs offered load",
		XLabel: "requests per second (per workload)",
		YLabel: "latency (ms)",
		Width:  64,
		Height: 18,
		Series: []asciiplot.Series{
			{Name: "w/o cross-layer optimization (p50)", X: xs, Y: basep50},
			{Name: "w/ cross-layer optimization (p50)", X: xs, Y: optp50},
			{Name: "w/o cross-layer optimization (p99)", X: xs, Y: basep99},
			{Name: "w/ cross-layer optimization (p99)", X: xs, Y: optp99},
		},
	}
	return c.Render()
}

// CSVFig4 renders the sweep as CSV for external plotting.
func CSVFig4(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("rps,ls_base_p50_ms,ls_opt_p50_ms,ls_base_p99_ms,ls_opt_p99_ms,li_base_p99_ms,li_opt_p99_ms\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.0f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			p.RPS,
			msFloat(p.Base.LS.P50), msFloat(p.Opt.LS.P50),
			msFloat(p.Base.LS.P99), msFloat(p.Opt.LS.P99),
			msFloat(p.Base.LI.P99), msFloat(p.Opt.LI.P99))
	}
	return b.String()
}

func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---------- E4: sidecar overhead ----------

// OverheadRow is one configuration of the sidecar-overhead experiment.
type OverheadRow struct {
	Name          string
	Proxies       int
	P50, P90, P99 time.Duration
	OverheadP50   time.Duration // vs the no-proxy baseline row
	OverheadP99   time.Duration
}

// RunSidecarOverhead measures the added latency of interposed sidecars
// on an unloaded single service call (§3.6: ~3 ms p99 for Istio's two
// proxies). n is the number of sampled requests.
func RunSidecarOverhead(n int, seed int64) []OverheadRow {
	if n <= 0 {
		n = 2000
	}
	measure := func(delay time.Duration) *hdr.Histogram {
		return chainLatencies(app.BuildChain(app.ChainConfig{
			Depth:       1,
			ServiceTime: 100 * time.Microsecond,
			Mesh:        mesh.Config{SidecarDelayMean: delay, Seed: seed},
		}), n)
	}

	delays := []time.Duration{
		-1, // proxy processing disabled
		mesh.DefaultSidecarDelay,
		4 * mesh.DefaultSidecarDelay,
	}
	hists := sweep(delays, measure)
	base, withProxies, heavy := hists[0], hists[1], hists[2]

	mk := func(name string, proxies int, h *hdr.Histogram) OverheadRow {
		return OverheadRow{
			Name:        name,
			Proxies:     proxies,
			P50:         h.QuantileDuration(0.50),
			P90:         h.QuantileDuration(0.90),
			P99:         h.QuantileDuration(0.99),
			OverheadP50: h.QuantileDuration(0.50) - base.QuantileDuration(0.50),
			OverheadP99: h.QuantileDuration(0.99) - base.QuantileDuration(0.99),
		}
	}
	return []OverheadRow{
		mk("no proxy overhead", 0, base),
		mk("2 sidecars (default cost)", 2, withProxies),
		mk("2 sidecars (4x cost)", 2, heavy),
	}
}

// FormatOverhead renders the E4 table.
func FormatOverhead(rows []OverheadRow) string {
	t := newTable("configuration", "p50", "p90", "p99", "added p50", "added p99")
	for _, r := range rows {
		t.row(r.Name, ms(r.P50), ms(r.P90), ms(r.P99), ms(r.OverheadP50), ms(r.OverheadP99))
	}
	return "E4 — per-request latency with sidecars interposed (unloaded)\n" + t.String()
}

// ---------- E5: ablation ----------

// AblationRow measures one optimization combination at a fixed load.
type AblationRow struct {
	Name         string
	LSP50, LSP99 time.Duration
	LIP99        time.Duration
	LSCount      uint64
}

// RunAblation measures each §4.2(3) optimization's contribution at the
// given per-workload RPS.
func RunAblation(rps float64, seed int64, mixed MixedConfig) []AblationRow {
	mixed.RPS = rps
	mixed.Seed = seed
	type combo struct {
		name string
		opt  Optimization
	}
	return sweep([]combo{
		{"baseline", None()},
		{"routing only (3a)", Optimization{Routing: true}},
		{"routing+tc (paper §4.3)", Optimization{Routing: true, TC: true}},
		{"routing+tc+scavenger", Optimization{Routing: true, TC: true, Scavenger: true}},
		{"all (+sdn)", AllOptimizations()},
	}, func(c combo) AblationRow {
		r := RunMixedOnce(c.opt, mixed)
		return AblationRow{
			Name:  c.name,
			LSP50: r.LS.P50, LSP99: r.LS.P99,
			LIP99:   r.LI.P99,
			LSCount: r.LS.Count,
		}
	})
}

// FormatAblation renders the E5 table.
func FormatAblation(rows []AblationRow, rps float64) string {
	t := newTable("optimizations", "LS p50", "LS p99", "LI p99")
	for _, r := range rows {
		t.row(r.Name, ms(r.LSP50), ms(r.LSP99), ms(r.LIP99))
	}
	return fmt.Sprintf("E5 — ablation at %.0f RPS per workload\n%s", rps, t.String())
}

// ---------- E6: scavenger transport ----------

// ScavengerRow measures one congestion controller carrying the bulk
// (LI) flow while short latency-sensitive transfers share a bottleneck.
type ScavengerRow struct {
	CC            string
	LSP50, LSP99  time.Duration // flow completion time of short transfers
	BulkMbps      float64       // bulk goodput while competing
	BulkAloneMbps float64       // bulk goodput on an idle link
}

// RunScavenger reproduces the §4.2(3b) mechanism in isolation on a
// dumbbell: a long-lived bulk flow (the LI class) and periodic 100 KB
// latency-sensitive transfers share a 100 Mbps bottleneck; the bulk
// flow's congestion controller varies per row.
func RunScavenger(seed int64) []ScavengerRow {
	const (
		bottleneck = 100 * simnet.Mbps
		lsSize     = 100 << 10
		runFor     = 30 * time.Second
	)
	ccs := []string{"reno", "cubic", "lp", "ledbat"}
	out := make([]ScavengerRow, len(ccs))
	// Two independent runs per controller: competing (even k) and solo
	// (odd k — the scavenger must still use an idle link fully).
	runIndexed(2*len(ccs), func(k int) {
		cc := ccs[k/2]
		if k%2 == 0 {
			fct, bulkBytes := scavengerRun(cc, bottleneck, lsSize, runFor, true)
			out[k/2].CC = cc
			out[k/2].LSP50 = fct.QuantileDuration(0.50)
			out[k/2].LSP99 = fct.QuantileDuration(0.99)
			out[k/2].BulkMbps = float64(bulkBytes) * 8 / runFor.Seconds() / 1e6
		} else {
			_, soloBytes := scavengerRun(cc, bottleneck, lsSize, runFor, false)
			out[k/2].BulkAloneMbps = float64(soloBytes) * 8 / runFor.Seconds() / 1e6
		}
	})
	return out
}

func scavengerRun(cc string, rate int64, lsSize int, runFor time.Duration, withLS bool) (*hdr.Histogram, uint64) {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	src1 := net.AddNode("ls-src")
	src2 := net.AddNode("bulk-src")
	sw := net.AddNode("sw")
	dst := net.AddNode("dst")
	fast := simnet.LinkConfig{Rate: 10 * rate, Delay: 200 * time.Microsecond}
	net.Connect(src1, sw, fast)
	net.Connect(src2, sw, fast)
	net.Connect(sw, dst, simnet.LinkConfig{Rate: rate, Delay: 200 * time.Microsecond, QueueBytes: 200 * simnet.MTU})

	h1, h2, hd := transport.NewHost(src1), transport.NewHost(src2), transport.NewHost(dst)
	fct := hdr.New()

	hd.Listen(80, func(c *transport.Conn) { c.SetOnMessage(func(any, int) {}) })

	bulk := h2.Dial(dst.Addr(), 80, transport.Options{CC: cc})
	bulk.SendMessage("bulk", 10<<30) // effectively unbounded

	if withLS {
		// A fresh short transfer every 250 ms, each on its own
		// connection (FCT includes the handshake, as a fresh RPC would).
		var fire func()
		fire = func() {
			if sched.Now() >= runFor {
				return
			}
			start := sched.Now()
			conn := h1.Dial(dst.Addr(), 80, transport.Options{CC: "reno"})
			conn.SendMessage("ls", lsSize)
			conn.SetOnClose(func(error) {})
			// Completion observed at the sender: all bytes acked.
			poll := func() {}
			poll = func() {
				if conn.BytesAcked() >= uint64(lsSize) {
					fct.RecordDuration(sched.Now() - start)
					conn.Close()
					return
				}
				sched.After(time.Millisecond, poll)
			}
			sched.After(time.Millisecond, poll)
			sched.After(250*time.Millisecond, fire)
		}
		fire()
	}
	sched.RunUntil(runFor)
	return fct, bulk.BytesAcked()
}

// FormatScavenger renders the E6 table.
func FormatScavenger(rows []ScavengerRow) string {
	t := newTable("bulk CC", "LS fct p50", "LS fct p99", "bulk Mbps (shared)", "bulk Mbps (alone)")
	for _, r := range rows {
		t.row(r.CC, ms(r.LSP50), ms(r.LSP99),
			fmt.Sprintf("%.1f", r.BulkMbps), fmt.Sprintf("%.1f", r.BulkAloneMbps))
	}
	return "E6 — scavenger transports yield the bottleneck to short transfers\n" + t.String()
}

// ---------- E7: adaptive replica selection ----------

// LBRow measures one load-balancing policy on a skewed replica set.
type LBRow struct {
	Policy    mesh.LBPolicy
	P50, P99  time.Duration
	SlowShare float64 // fraction of requests served by the slow replica
}

// RunAdaptiveLB compares LB policies against a service with one
// degraded replica (§3.4's adaptive replica selection direction).
func RunAdaptiveLB(rps float64, seed int64) []LBRow {
	if rps <= 0 {
		rps = 50
	}
	policies := []mesh.LBPolicy{mesh.LBRoundRobin, mesh.LBRandom, mesh.LBLeastRequest, mesh.LBEWMA}
	return sweep(policies, func(p mesh.LBPolicy) LBRow { return runLBOnce(p, rps, seed) })
}

func runLBOnce(policy mesh.LBPolicy, rps float64, seed int64) LBRow {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)
	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	var pods []*cluster.Pod
	for i := 1; i <= 3; i++ {
		pods = append(pods, cl.AddPod(cluster.PodSpec{
			Name:    fmt.Sprintf("api-%d", i),
			Labels:  map[string]string{"app": "api"},
			Workers: 8,
		}))
	}
	cl.AddService("api", 9080, map[string]string{"app": "api"})
	m := mesh.New(cl, mesh.Config{Seed: seed})
	gw := m.NewGateway(gwPod)
	m.ControlPlane().SetLBPolicy("api", policy)

	served := map[string]uint64{}
	for i, pod := range pods {
		pod := pod
		svcTime := 2 * time.Millisecond
		if i == 0 {
			svcTime = 25 * time.Millisecond // the degraded replica
		}
		sc := m.InjectSidecar(pod)
		sc.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
			served[pod.Name()]++
			pod.Exec(svcTime, func() {
				out := httpsim.NewResponse(httpsim.StatusOK)
				out.BodyBytes = 4 << 10
				respond(out)
			})
		})
	}

	g := workload.Start(sched, gw, workload.Spec{
		Name: string(policy), Rate: rps, Seed: seed + 5,
		NewRequest: func() *httpsim.Request {
			r := httpsim.NewRequest("GET", "/api")
			r.Headers.Set(mesh.HeaderHost, "api")
			return r
		},
		Warmup: 2 * time.Second, Measure: 20 * time.Second, Cooldown: time.Second,
	})
	sched.RunFor(25 * time.Second)
	r := g.Results()
	var total uint64
	for _, c := range served {
		total += c
	}
	slowShare := 0.0
	if total > 0 {
		slowShare = float64(served["api-1"]) / float64(total)
	}
	return LBRow{Policy: policy, P50: r.P50(), P99: r.P99(), SlowShare: slowShare}
}

// FormatAdaptiveLB renders the E7 table.
func FormatAdaptiveLB(rows []LBRow) string {
	t := newTable("policy", "p50", "p99", "slow-replica share")
	for _, r := range rows {
		t.row(string(r.Policy), ms(r.P50), ms(r.P99), fmt.Sprintf("%.2f", r.SlowShare))
	}
	return "E7 — adaptive replica selection with one degraded replica\n" + t.String()
}

// ---------- E8: redundant requests ----------

// HedgeRow measures tail latency with and without request hedging.
type HedgeRow struct {
	Name           string
	P50, P99, P999 time.Duration
	Count          uint64
}

// RunRedundant reproduces the "low latency via redundancy" direction
// (§3.4 ref [50]): the recs service has a heavy-tailed service time;
// hedged requests cut the tail.
func RunRedundant(rps float64, seed int64) []HedgeRow {
	if rps <= 0 {
		rps = 30
	}
	run := func(hedge bool) HedgeRow {
		ec := app.BuildECommerce(app.ECommerceConfig{Seed: seed, RecsSlowProb: 0.05, RecsSlowTime: 80 * time.Millisecond})
		if hedge {
			ec.Mesh.ControlPlane().SetHedgePolicy("recs", mesh.HedgePolicy{Delay: 10 * time.Millisecond})
		}
		g := workload.Start(ec.Sched, ec.Gateway, workload.Spec{
			Name: "store", Rate: rps, Seed: seed + 3,
			NewRequest: app.NewStorefrontRequest,
			Warmup:     2 * time.Second, Measure: 20 * time.Second, Cooldown: time.Second,
		})
		ec.Sched.RunFor(25 * time.Second)
		r := g.Results()
		name := "no hedging"
		if hedge {
			name = "hedge after 10ms"
		}
		return HedgeRow{
			Name: name,
			P50:  r.P50(), P99: r.P99(),
			P999:  r.Hist.QuantileDuration(0.999),
			Count: r.Measured,
		}
	}
	return sweep([]bool{false, true}, run)
}

// FormatRedundant renders the E8 table.
func FormatRedundant(rows []HedgeRow) string {
	t := newTable("configuration", "p50", "p99", "p99.9")
	for _, r := range rows {
		t.row(r.Name, ms(r.P50), ms(r.P99), ms(r.P999))
	}
	return "E8 — redundant requests against a heavy-tailed replica\n" + t.String()
}

// ---------- E9: hop depth ----------

// HopRow measures request latency at one chain depth.
type HopRow struct {
	Depth    int
	P50, P99 time.Duration
	PerHop   time.Duration // p50 divided by depth
}

// RunHopDepth measures how sidecar costs accumulate over deep call
// chains (§3.6: "costly for latency-sensitive apps involving tens of
// hops among microservices").
func RunHopDepth(depths []int, n int, seed int64) []HopRow {
	if len(depths) == 0 {
		depths = []int{1, 2, 4, 8, 16, 32}
	}
	if n <= 0 {
		n = 500
	}
	return sweep(depths, func(d int) HopRow {
		h := chainLatencies(app.BuildChain(app.ChainConfig{Depth: d, Mesh: mesh.Config{Seed: seed}}), n)
		return HopRow{
			Depth:  d,
			P50:    h.QuantileDuration(0.50),
			P99:    h.QuantileDuration(0.99),
			PerHop: h.QuantileDuration(0.50) / time.Duration(d),
		}
	})
}

// chainLatencies sends n requests through the chain one at a time, 1 ms
// apart, and returns their latency distribution.
func chainLatencies(c *app.Chain, n int) *hdr.Histogram {
	h := hdr.New()
	var next func(i int)
	next = func(i int) {
		if i >= n {
			return
		}
		start := c.Sched.Now()
		c.Gateway.Serve(app.NewChainRequest(), func(*httpsim.Response, error) {
			h.RecordDuration(c.Sched.Now() - start)
			c.Sched.After(time.Millisecond, func() { next(i + 1) })
		})
	}
	next(0)
	c.Sched.Run()
	return h
}

// FormatHopDepth renders the E9 table.
func FormatHopDepth(rows []HopRow) string {
	t := newTable("depth", "p50", "p99", "p50 per hop")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Depth), ms(r.P50), ms(r.P99), ms(r.PerHop))
	}
	return "E9 — latency accumulation over chain depth\n" + t.String()
}

// ---------- E10: bottleneck-rate sweep (extension) ----------

// BottleneckRow measures one bottleneck capacity at fixed load.
type BottleneckRow struct {
	RateGbps            float64
	BaseP99, OptP99     time.Duration
	BaseLIP99, OptLIP99 time.Duration
}

// RunBottleneckSweep varies the ratings uplink capacity at a fixed
// 40 RPS mixed load, locating where prioritization stops mattering
// (an extension beyond the paper's single 1 Gbps point).
func RunBottleneckSweep(ratesGbps []float64, seed int64, mixed MixedConfig) []BottleneckRow {
	if len(ratesGbps) == 0 {
		ratesGbps = []float64{0.5, 1, 2, 4}
	}
	if mixed.RPS == 0 {
		mixed.RPS = 40
	}
	mixed.Seed = seed
	base, opt := baseAndOpt(len(ratesGbps), 0, PaperOptimizations(), func(i int, opt Optimization) MixedResult {
		appCfg := app.DefaultELibraryConfig()
		appCfg.BottleneckRate = int64(ratesGbps[i] * float64(simnet.Gbps))
		return NewScenario(ScenarioConfig{Opt: opt, Seed: seed, App: appCfg}).RunMixed(mixed)
	})
	out := make([]BottleneckRow, len(ratesGbps))
	for i, g := range ratesGbps {
		out[i] = BottleneckRow{RateGbps: g, BaseP99: base[i].LS.P99, OptP99: opt[i].LS.P99,
			BaseLIP99: base[i].LI.P99, OptLIP99: opt[i].LI.P99}
	}
	return out
}

// FormatBottleneck renders the E10 table.
func FormatBottleneck(rows []BottleneckRow) string {
	t := newTable("bottleneck", "LS base p99", "LS opt p99", "x p99", "LI base p99", "LI opt p99")
	for _, r := range rows {
		t.row(fmt.Sprintf("%.1f Gbps", r.RateGbps),
			ms(r.BaseP99), ms(r.OptP99), ratio(r.BaseP99, r.OptP99),
			ms(r.BaseLIP99), ms(r.OptLIP99))
	}
	return "E10 — where prioritization matters: bottleneck capacity sweep (40 RPS)\n" + t.String()
}

// ---------- E11: workload-skew sweep (extension) ----------

// SkewRow measures one LI response size (the paper's "~200x larger"
// parameter) at fixed load.
type SkewRow struct {
	LIMB            float64 // LI ratings response in MB
	SkewFactor      float64 // LI bytes / LS page bytes
	BaseP99, OptP99 time.Duration
}

// RunSkewSweep varies how much larger the latency-insensitive
// responses are, at a fixed 40 RPS mixed load.
func RunSkewSweep(liMB []float64, seed int64, mixed MixedConfig) []SkewRow {
	if len(liMB) == 0 {
		liMB = []float64{0.5, 1, 2, 4}
	}
	if mixed.RPS == 0 {
		mixed.RPS = 40
	}
	mixed.Seed = seed
	apps := make([]app.ELibraryConfig, len(liMB))
	for i, mb := range liMB {
		apps[i] = app.DefaultELibraryConfig()
		apps[i].LIRatingsBytes = int(mb * float64(1<<20))
	}
	base, opt := baseAndOpt(len(apps), 0, PaperOptimizations(), func(i int, opt Optimization) MixedResult {
		return NewScenario(ScenarioConfig{Opt: opt, Seed: seed, App: apps[i]}).RunMixed(mixed)
	})
	out := make([]SkewRow, len(liMB))
	for i, a := range apps {
		out[i] = SkewRow{LIMB: liMB[i], BaseP99: base[i].LS.P99, OptP99: opt[i].LS.P99,
			SkewFactor: float64(a.LIRatingsBytes) / float64(a.LSFrontendBytes+a.LSReviewsBytes)}
	}
	return out
}

// FormatSkew renders the E11 table.
func FormatSkew(rows []SkewRow) string {
	t := newTable("LI response", "skew", "LS base p99", "LS opt p99", "x p99")
	for _, r := range rows {
		t.row(fmt.Sprintf("%.1f MB", r.LIMB), fmt.Sprintf("%.0fx", r.SkewFactor),
			ms(r.BaseP99), ms(r.OptP99), ratio(r.BaseP99, r.OptP99))
	}
	return "E11 — sensitivity to workload skew (LI response size, 40 RPS)\n" + t.String()
}

// ---------- E13: AQM vs priority queueing (extension) ----------

// QdiscRow measures one bottleneck queueing discipline under the mixed
// workload.
type QdiscRow struct {
	Name         string
	LSP50, LSP99 time.Duration
	LIP99        time.Duration
}

// RunQdiscComparison isolates the packet-scheduling half of the paper's
// argument: with priority routing (and marks) in place, the ratings
// bottleneck runs droptail FIFO, RED, CoDel, or the paper's
// nearly-strict priority discipline. AQMs bound queueing delay for
// everyone but cannot *differentiate* — only the class-aware qdisc
// protects the latency-sensitive tail outright.
func RunQdiscComparison(rps float64, seed int64, mixed MixedConfig) []QdiscRow {
	if rps <= 0 {
		rps = 40
	}
	mixed.RPS = rps
	mixed.Seed = seed

	variants := []string{"fifo (droptail)", "red", "codel", "nearstrict 95% (paper)"}
	return sweep(variants, func(name string) QdiscRow {
		s := NewScenario(ScenarioConfig{Opt: Optimization{Routing: true}, Seed: seed})
		e := s.App
		clock := e.Sched.Now
		rate := e.Ratings.Uplink().Config().Rate
		for _, nic := range []*simnet.NIC{e.Ratings.Uplink().A(), e.Ratings.Uplink().B()} {
			switch name {
			case "red":
				nic.SetQdisc(tc.NewRED(tc.REDConfig{
					MinBytes: 100 * simnet.MTU, MaxBytes: 400 * simnet.MTU, Seed: seed,
				}))
			case "codel":
				nic.SetQdisc(tc.NewCoDel(tc.CoDelConfig{Target: 5 * time.Millisecond}, clock))
			case "nearstrict 95% (paper)":
				nic.SetQdisc(tc.NewNearStrict(tc.NearStrictConfig{LinkRate: rate, HighShare: 0.95}, clock))
			}
		}
		r := s.RunMixed(mixed)
		return QdiscRow{Name: name, LSP50: r.LS.P50, LSP99: r.LS.P99, LIP99: r.LI.P99}
	})
}

// FormatQdiscComparison renders the E13 table.
func FormatQdiscComparison(rows []QdiscRow, rps float64) string {
	t := newTable("bottleneck qdisc", "LS p50", "LS p99", "LI p99")
	for _, r := range rows {
		t.row(r.Name, ms(r.LSP50), ms(r.LSP99), ms(r.LIP99))
	}
	return fmt.Sprintf("E13 — AQM vs class-aware scheduling at the bottleneck (%.0f RPS, routing on)\n%s", rps, t.String())
}

// ---------- E12: resilience under partition (extension) ----------

// ResilienceRow is one phase of the partition experiment under one
// resilience configuration.
type ResilienceRow struct {
	Config    string
	Phase     string // "before" | "during" | "after"
	ErrorRate float64
	P50, P99  time.Duration
}

// RunResilience partitions one reviews replica mid-run and measures
// the latency-sensitive workload before, during, and after, with the
// mesh's resilience machinery (retries + circuit breaking) off and on.
// It isolates what the sidecar layer itself buys an application when
// infrastructure misbehaves.
func RunResilience(rps float64, seed int64) []ResilienceRow {
	if rps <= 0 {
		rps = 30
	}
	const phase = 10 * time.Second
	run := func(resilient bool) []ResilienceRow {
		s := NewScenario(ScenarioConfig{Seed: seed})
		e := s.App
		cp := e.Mesh.ControlPlane()
		if resilient {
			cp.SetRetryPolicy("reviews", mesh.RetryPolicy{MaxRetries: 2, PerTryTimeout: 250 * time.Millisecond, RetryOn5xx: true})
			cp.SetCircuitBreaker("reviews", mesh.CircuitBreakerPolicy{ConsecutiveFailures: 2, OpenFor: 5 * time.Second})
		} else {
			cp.SetRetryPolicy("reviews", mesh.RetryPolicy{PerTryTimeout: 250 * time.Millisecond})
			cp.SetCircuitBreaker("reviews", mesh.CircuitBreakerPolicy{ConsecutiveFailures: 1 << 30, OpenFor: time.Second})
		}

		spec := func(seed int64) workload.Spec {
			return workload.Spec{
				Name: "ls", Rate: rps, NewRequest: app.NewProductRequest, Seed: seed,
				Warmup: time.Second, Measure: phase - 2*time.Second, Cooldown: time.Second,
			}
		}
		g1 := workload.Start(e.Sched, e.Gateway, spec(seed+1))
		var g2, g3 *workload.Generator
		e.Sched.At(phase, func() {
			e.Reviews[0].Partition(true)
			g2 = workload.Start(e.Sched, e.Gateway, spec(seed+2))
		})
		e.Sched.At(2*phase, func() {
			e.Reviews[0].Partition(false)
			g3 = workload.Start(e.Sched, e.Gateway, spec(seed+3))
		})
		e.Sched.RunUntil(3*phase + 2*time.Second)

		name := "no resilience"
		if resilient {
			name = "retries + circuit breaking"
		}
		mk := func(phaseName string, g *workload.Generator) ResilienceRow {
			r := g.Results()
			return ResilienceRow{Config: name, Phase: phaseName, ErrorRate: errRate(r.Measured, r.Errors), P50: r.P50(), P99: r.P99()}
		}
		return []ResilienceRow{mk("before", g1), mk("during partition", g2), mk("after heal", g3)}
	}
	halves := sweep([]bool{false, true}, run)
	return append(halves[0], halves[1]...)
}

// FormatResilience renders the E12 table.
func FormatResilience(rows []ResilienceRow) string {
	t := newTable("configuration", "phase", "error rate", "p50", "p99")
	for _, r := range rows {
		t.row(r.Config, r.Phase, fmt.Sprintf("%.1f%%", 100*r.ErrorRate), ms(r.P50), ms(r.P99))
	}
	return "E12 — one reviews replica partitioned mid-run (LS workload)\n" + t.String()
}

// ---------- E14: overload protection (extension) ----------

// Overload experiment fixed points: a single-pod api tier with
// overloadAPIWorkers workers of overloadAPITime service time, so its
// capacity is workers/serviceTime = 200 requests/second — small enough
// to overload cheaply, large enough for stable statistics.
const (
	overloadAPIWorkers = 4
	overloadAPITime    = 20 * time.Millisecond
	overloadBudget     = 200 * time.Millisecond
	// overloadLSShare is the latency-sensitive fraction of offered
	// load; the rest is low-importance.
	overloadLSShare = 0.25
)

// OverloadCapacity returns the api tier's nominal capacity in
// requests per second.
func OverloadCapacity() float64 {
	return float64(overloadAPIWorkers) / overloadAPITime.Seconds()
}

// OverloadRow is one (configuration, offered load) cell of the
// overload experiment.
type OverloadRow struct {
	Config string
	// Load is the offered load as a multiple of api capacity.
	Load         float64
	LSP50, LSP99 time.Duration
	// LSGoodput and LIGoodput are in-window successful completions as
	// a fraction of that class's offered load.
	LSGoodput, LIGoodput float64
	// Shed counts admission rejections (503/504) at the api sidecar.
	Shed uint64
	// Cancelled counts child calls cancelled by deadline propagation
	// before reaching the backend.
	Cancelled uint64
	// BackendWork counts requests the backend actually executed — the
	// downstream work metric deadline propagation is meant to cut.
	BackendWork uint64
}

// RunOverload measures the admission-control subsystem under offered
// loads below and past the api tier's capacity, across four
// configurations: no protection, deadline propagation only, admission
// (queue + adaptive concurrency limit) only, and both. The topology is
// gateway -> api (the bottleneck) -> backend, with a 1:3 LS:LI mix and
// retries disabled so shed fast-fails are not re-amplified.
func RunOverload(seed int64, warmup, measure time.Duration) []OverloadRow {
	warmup, measure = windowDefaults(warmup, measure, 20*time.Second)
	configs := []struct {
		name                string
		admission, deadline bool
	}{
		{"disabled", false, false},
		{"deadline only", false, true},
		{"admission", true, false},
		{"admission + deadline", true, true},
	}
	loads := []float64{0.5, 2.0}
	out := make([]OverloadRow, len(configs)*len(loads))
	runIndexed(len(out), func(k int) {
		cfg := configs[k/len(loads)]
		load := loads[k%len(loads)]
		out[k] = runOverloadOnce(cfg.name, cfg.admission, cfg.deadline, load, seed, warmup, measure)
	})
	return out
}

func runOverloadOnce(name string, admit, deadline bool, load float64, seed int64, warmup, measure time.Duration) OverloadRow {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)
	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}})
	apiPod := cl.AddPod(cluster.PodSpec{Name: "api-1", Labels: map[string]string{"app": "api"}, Workers: overloadAPIWorkers})
	bePod := cl.AddPod(cluster.PodSpec{Name: "backend-1", Labels: map[string]string{"app": "backend"}, Workers: 32})
	cl.AddService("api", 9080, map[string]string{"app": "api"})
	cl.AddService("backend", 9080, map[string]string{"app": "backend"})

	m := mesh.New(cl, mesh.Config{Seed: seed})
	gw := m.NewGateway(gwPod)
	apiSC := m.InjectSidecar(apiPod)
	beSC := m.InjectSidecar(bePod)
	gw.SetClassifier(mesh.PathClassifier(map[string]string{
		"/ls": mesh.PriorityHigh,
		"/li": mesh.PriorityLow,
	}, mesh.PriorityHigh))

	cp := m.ControlPlane()
	// Sheds and deadline rejections are deliberate fast-fails;
	// retrying them would re-amplify exactly the load being shed.
	cp.SetRetryPolicy("api", mesh.RetryPolicy{})
	cp.SetRetryPolicy("backend", mesh.RetryPolicy{})
	pol := mesh.AdmissionPolicy{
		Enabled:            admit,
		QueueLimit:         128,
		QueueTarget:        10 * time.Millisecond,
		QueueLSTarget:      50 * time.Millisecond,
		QueueInterval:      50 * time.Millisecond,
		InitialConcurrency: overloadAPIWorkers,
		MinConcurrency:     2,
		// Under sustained overload every latency sample includes
		// worker-pool queueing, so the limiter's no-load floor drifts
		// up and stops pulling the limit down; the Max bound encodes
		// what the floor cannot rediscover — the pod has 4 workers, so
		// concurrency past ~2x workers only buys queueing delay.
		MaxConcurrency: 2 * overloadAPIWorkers,
	}
	if deadline {
		pol.Budget = overloadBudget
	}
	cp.SetAdmissionPolicy("api", pol)

	var backendWork uint64
	beSC.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		backendWork++
		bePod.Exec(time.Millisecond, func() { respond(httpsim.NewResponse(httpsim.StatusOK)) })
	})
	apiSC.RegisterApp(func(req *httpsim.Request, respond func(*httpsim.Response)) {
		apiPod.Exec(overloadAPITime, func() {
			child := httpsim.NewRequest("GET", "/data")
			child.Headers.Set(mesh.HeaderHost, "backend")
			app.CopyTrace(req, child)
			apiSC.Call(child, func(resp *httpsim.Response, err error) {
				if err != nil {
					respond(httpsim.NewResponse(httpsim.StatusBadGateway))
					return
				}
				respond(httpsim.NewResponse(resp.Status))
			})
		})
	})

	capacity := OverloadCapacity()
	lsRate := overloadLSShare * load * capacity
	liRate := (1 - overloadLSShare) * load * capacity

	// Goodput counts successful completions inside the measure window
	// by completion time, against the class's offered load — so work
	// finished late (after cooldown) or shed doesn't count.
	winLo, winHi := warmup, warmup+measure
	goodCounter := func(good *uint64) func(at, latency time.Duration, failed bool) {
		return func(at, latency time.Duration, failed bool) {
			if !failed && at >= winLo && at < winHi {
				*good++
			}
		}
	}
	var lsGood, liGood uint64
	mkSpec := func(wlName, path string, rate float64, seedOff int64, good *uint64) workload.Spec {
		return workload.Spec{
			Name: wlName, Rate: rate, Seed: seed + seedOff,
			NewRequest: func() *httpsim.Request {
				r := httpsim.NewRequest("GET", path)
				r.Headers.Set(mesh.HeaderHost, "api")
				return r
			},
			Warmup: warmup, Measure: measure, Cooldown: time.Second,
			OnComplete: goodCounter(good),
		}
	}
	ls := workload.Start(sched, gw, mkSpec("ls", "/ls", lsRate, 11, &lsGood))
	workload.Start(sched, gw, mkSpec("li", "/li", liRate, 13, &liGood))
	sched.RunFor(warmup + measure + 2*time.Second)

	lsRes := ls.Results()
	reg := m.Metrics()
	return OverloadRow{
		Config:      name,
		Load:        load,
		LSP50:       lsRes.P50(),
		LSP99:       lsRes.P99(),
		LSGoodput:   float64(lsGood) / (lsRate * measure.Seconds()),
		LIGoodput:   float64(liGood) / (liRate * measure.Seconds()),
		Shed:        reg.CounterTotal("mesh_admission_shed_total"),
		Cancelled:   reg.CounterTotal("mesh_admission_cancelled_total"),
		BackendWork: backendWork,
	}
}

// FormatOverload renders the E14 table.
func FormatOverload(rows []OverloadRow) string {
	t := newTable("configuration", "load", "LS p50", "LS p99", "LS goodput", "LI goodput", "shed", "cancelled", "backend work")
	for _, r := range rows {
		t.row(r.Config, fmt.Sprintf("%.1fx", r.Load), ms(r.LSP50), ms(r.LSP99),
			fmt.Sprintf("%.1f%%", 100*r.LSGoodput), fmt.Sprintf("%.1f%%", 100*r.LIGoodput),
			fmt.Sprint(r.Shed), fmt.Sprint(r.Cancelled), fmt.Sprint(r.BackendWork))
	}
	return fmt.Sprintf("E14 — overload protection (api capacity %.0f RPS, LS:LI = 1:3, budget %v)\n%s",
		OverloadCapacity(), overloadBudget, t.String())
}

// ---------- E15: chaos suite vs self-healing defenses (extension) ----------

// ChaosRow is one defense configuration measured under the scripted
// chaos suite.
type ChaosRow struct {
	Config         string
	LSP50, LSP99   time.Duration
	LSErrRate      float64
	LIP99          time.Duration
	LIErrRate      float64
	Retries        uint64
	BudgetDenied   uint64
	CrashTTR       time.Duration
	CrashRecovered bool
	Faults         bool
}

// chaosDefenseLevel selects how much of the self-healing stack is on:
// 0 = nothing (single attempts, breaker effectively off), 1 = retries
// + circuit breaking, 2 = + active health checks + outlier detection,
// 3 = + retry budgets with exponential backoff.
func applyChaosDefenses(cp *mesh.ControlPlane, level int) {
	for _, svc := range meshServices {
		// Per-try timeouts are tuned per service at every level (they
		// are base config, not a defense rung): they must sit above the
		// worst-case legitimate latency — 2 MB LI transfers queue up to
		// ~330 ms at 30 RPS on the reviews/ratings/frontend paths — or
		// the mesh aborts healthy transfers and retry-amplifies the
		// congestion it caused. details only ever answers in ~3 ms, so
		// it gets a tight timeout that beats transport RTO recovery.
		perTry := time.Second
		if svc == "details" {
			perTry = 60 * time.Millisecond
		}
		retry := mesh.RetryPolicy{MaxRetries: 0, PerTryTimeout: perTry}
		breaker := mesh.CircuitBreakerPolicy{ConsecutiveFailures: 1 << 30, OpenFor: time.Second}
		if level >= 1 {
			retry = mesh.RetryPolicy{MaxRetries: 2, PerTryTimeout: perTry, RetryOn5xx: true}
			breaker = mesh.CircuitBreakerPolicy{ConsecutiveFailures: 5, OpenFor: 2 * time.Second}
		}
		if level >= 3 {
			retry.BackoffBase = time.Millisecond
			retry.BackoffMax = 20 * time.Millisecond
			// Ratio bounds sustained retry traffic; the burst floor
			// must absorb one aborted-connection batch (several
			// pipelined requests retrying at once) without turning
			// first retries into user-visible failures.
			retry.BudgetRatio = 0.25
			retry.BudgetBurst = 10
		}
		cp.SetRetryPolicy(svc, retry)
		cp.SetCircuitBreaker(svc, breaker)
		if level >= 2 {
			cp.SetHealthCheck(svc, mesh.HealthCheckPolicy{
				Interval: 25 * time.Millisecond, Timeout: 20 * time.Millisecond,
				UnhealthyThreshold: 2, HealthyThreshold: 2,
				SlowStart: 1500 * time.Millisecond,
			})
			cp.SetOutlierPolicy(svc, mesh.OutlierPolicy{
				Interval: 100 * time.Millisecond, MinRequests: 3,
				FailureThreshold: 0.4, LatencyFactor: 5,
				BaseEjection: 3 * time.Second, PanicThreshold: 0.5,
			})
		}
	}
}

// chaosSuite is the scripted fault sequence E15 replays against every
// configuration: a pod crash, an error-rate gray failure, a slow-pod
// gray failure, and a loss burst, in disjoint windows across the
// measured interval. Returns the scenario and the crash injection time
// (the TTR anchor).
func chaosSuite(seed int64, warmup, measure time.Duration) (chaos.Scenario, time.Duration) {
	w, m := warmup, measure
	crashAt := w + m/10
	return chaos.Scenario{
		Name: "e15-suite",
		Events: []chaos.Event{
			{At: crashAt, Duration: 3 * m / 20, Fault: chaos.PodCrash{Pod: "reviews-2"}},
			{At: w + 7*m/20, Duration: 3 * m / 20, Fault: chaos.ErrorRate{
				Pod: "ratings-1", Prob: 0.35, Status: 500, Delay: 5 * time.Millisecond, Seed: seed*31 + 1,
			}},
			{At: w + 11*m/20, Duration: 3 * m / 20, Fault: chaos.SlowPod{Pod: "reviews-1", Factor: 20}},
			{At: w + 16*m/20, Duration: m / 10, Fault: chaos.LossBurst{
				Pod: "details-1", Loss: 0.015, Jitter: 300 * time.Microsecond, Seed: seed*31 + 2,
			}},
		},
	}, crashAt
}

// RunChaos measures the e-library under the chaos suite across the
// defense ladder, plus a fault-free baseline for reference. Error
// rates and TTR come from a chaos.Recorder on the LS stream.
func RunChaos(seed int64, warmup, measure time.Duration) []ChaosRow {
	warmup, measure = windowDefaults(warmup, measure, 20*time.Second)
	type config struct {
		name   string
		level  int
		faults bool
	}
	return sweep([]config{
		{"fault-free baseline", 3, false},
		{"no defenses", 0, true},
		{"retries + breaker", 1, true},
		{"+ health checks + outlier detection", 2, true},
		{"+ retry budgets + backoff", 3, true},
	}, func(c config) ChaosRow {
		return runChaosOnce(c.name, c.level, c.faults, seed, warmup, measure)
	})
}

func runChaosOnce(name string, level int, withFaults bool, seed int64, warmup, measure time.Duration) ChaosRow {
	l := newLadderRun(app.DefaultELibraryConfig(), defenses{level: level}, seed, warmup, measure)
	suite, crashAt := chaosSuite(seed, warmup, measure)
	if withFaults {
		l.inject(suite)
	}
	r := l.run()

	ttr, recovered := l.recs[0].RecoveryTime(crashAt, 3)
	return ChaosRow{
		Config:         name,
		LSP50:          r.LS.P50,
		LSP99:          r.LS.P99,
		LSErrRate:      errRate(r.LS.Count, r.LS.Errors),
		LIP99:          r.LI.P99,
		LIErrRate:      errRate(r.LI.Count, r.LI.Errors),
		Retries:        l.counter("mesh_retries_total"),
		BudgetDenied:   l.counter("mesh_retry_budget_exhausted_total"),
		CrashTTR:       ttr,
		CrashRecovered: recovered,
		Faults:         withFaults,
	}
}

// FormatChaos renders the E15 table.
func FormatChaos(rows []ChaosRow) string {
	t := newTable("configuration", "LS p50", "LS p99", "LS err", "LI p99", "LI err", "retries", "denied", "crash TTR")
	for _, r := range rows {
		ttr := "-"
		if r.Faults {
			if r.CrashRecovered {
				ttr = ms(r.CrashTTR)
			} else {
				ttr = "never"
			}
		}
		t.row(r.Config, ms(r.LSP50), ms(r.LSP99),
			fmt.Sprintf("%.2f%%", 100*r.LSErrRate),
			ms(r.LIP99), fmt.Sprintf("%.2f%%", 100*r.LIErrRate),
			fmt.Sprint(r.Retries), fmt.Sprint(r.BudgetDenied), ttr)
	}
	return "E15 — chaos suite (crash, error-rate, slow-pod, loss burst) vs self-healing defenses (30 RPS mixed)\n" + t.String()
}

// errRate is errors/(ok+errors), 0 when nothing completed.
func errRate(ok, errors uint64) float64 {
	if ok+errors == 0 {
		return 0
	}
	return float64(errors) / float64(ok+errors)
}

// ---------- formatting helpers ----------

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func ratio(base, opt time.Duration) string {
	if opt <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(opt))
}

type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table { return &table{headers: headers} }

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
