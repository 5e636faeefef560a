package meshlayer

import (
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
	"meshlayer/internal/ctrlplane"
	"meshlayer/internal/mesh"
)

// ---------- shared fault-ladder runner (E15, E17, E18, E19) ----------

// meshServices are the e-library services every defense rung
// configures.
var meshServices = []string{"frontend", "details", "reviews", "ratings"}

// defenses is one rung of a fault ladder: the E15 self-healing level
// (see applyChaosDefenses), a locality policy for every service (zero
// leaves locality routing off), and graceful degradation on the
// reviews -> ratings edge.
type defenses struct {
	level    int
	locality mesh.LocalityPolicy
	fallback bool
}

// zoneDefenses is rung 0-3 of the E17 ladder:
// 0 = zone-blind, no defenses (single attempts, breaker off);
// 1 = zone-aware LB (strict locality), still no defenses;
// 2 = locality failover + the full E15 self-healing stack;
// 3 = rung 2 + graceful degradation.
func zoneDefenses(rung int) defenses {
	switch {
	case rung <= 0:
		return defenses{}
	case rung == 1:
		return defenses{locality: mesh.LocalityPolicy{Mode: mesh.LocalityStrict}}
	}
	return defenses{level: 3, locality: mesh.LocalityPolicy{Mode: mesh.LocalityFailover}, fallback: rung >= 3}
}

func (d defenses) apply(cp *mesh.ControlPlane) {
	applyChaosDefenses(cp, d.level)
	// Setting a policy bumps the config version, so a zero policy is
	// not set at all.
	if !d.locality.IsZero() {
		for _, svc := range meshServices {
			cp.SetLocalityPolicy(svc, d.locality)
		}
	}
	if d.fallback {
		// Reviews serves its page without the ratings column when
		// ratings is unreachable: a small degraded body instead of a
		// failed call tree. The 400 ms deadline sits above the ~330 ms
		// worst-case legitimate LI queueing (see applyChaosDefenses)
		// and below the callers' 1 s per-try timeouts.
		cp.SetFallbackPolicy("ratings", mesh.FallbackPolicy{
			Enabled: true, BodyBytes: 256, After: 400 * time.Millisecond,
		})
	}
}

// ladderRun is one configuration of a fault ladder: the e-library with
// its defenses applied, an optional fault suite, and the 30 RPS mixed
// workload observed by per-class outcome recorders.
type ladderRun struct {
	*Scenario
	mixed MixedConfig
	// recs are the LS and LI recorders, then any from recorder().
	recs []*chaos.Recorder
}

func newLadderRun(appCfg app.ELibraryConfig, d defenses, seed int64, warmup, measure time.Duration) *ladderRun {
	s := NewScenario(ScenarioConfig{Seed: seed, App: appCfg})
	d.apply(s.App.Mesh.ControlPlane())
	l := &ladderRun{Scenario: s, mixed: MixedConfig{RPS: 30, Seed: seed, Warmup: warmup, Measure: measure}}
	l.recorder()
	l.recorder()
	return l
}

// recorder returns a new recorder whose outcomes count toward avail.
// Buckets are sized so each holds ~10+ LS samples at 30 RPS; much
// finer and empty buckets read as spurious recovery.
func (l *ladderRun) recorder() *chaos.Recorder {
	r := chaos.NewRecorder(l.mixed.Measure / 40)
	l.recs = append(l.recs, r)
	return r
}

func (l *ladderRun) inject(suite chaos.Scenario) {
	chaos.NewEngine(&chaos.Target{Sched: l.App.Sched, Cluster: l.App.Cluster, Mesh: l.App.Mesh}).Schedule(suite)
}

// run drives the mixed workload to completion.
func (l *ladderRun) run() MixedResult {
	cfg := l.mixed
	cfg.LSObserver, cfg.LIObserver = l.recs[0].Observe, l.recs[1].Observe
	return l.RunMixed(cfg)
}

// avail is served/total over [from, to) across every recorder.
// Degraded-but-served responses count as served.
func (l *ladderRun) avail(from, to time.Duration) float64 {
	return availability(from, to, l.recs...)
}

func (l *ladderRun) counter(name string) uint64 { return l.App.Mesh.Metrics().CounterTotal(name) }

// degradedFrac is the fraction of served external responses that
// carried the x-mesh-degraded provenance stamp.
func (l *ladderRun) degradedFrac(r MixedResult) float64 {
	served := r.LS.Count + r.LI.Count
	if served == 0 {
		return 0
	}
	return float64(l.counter("gateway_degraded_total")) / float64(served)
}

// staleP99 is the p99 config age at apply time across every
// distributing control plane.
func (l *ladderRun) staleP99() time.Duration {
	return l.App.Mesh.Metrics().Histogram(ctrlplane.MetricStalenessSeconds, nil).QuantileDuration(0.99)
}

// availability is served/total over [from, to) summed across recs; 1
// when nothing completed.
func availability(from, to time.Duration, recs ...*chaos.Recorder) float64 {
	var ok, fail uint64
	for _, r := range recs {
		o, f := r.Counts(from, to)
		ok += o
		fail += f
	}
	if ok+fail == 0 {
		return 1
	}
	return float64(ok) / float64(ok+fail)
}

// windowDefaults replaces a zero or negative warm-up with 2 s and a
// zero or negative measured window with def.
func windowDefaults(warmup, measure, def time.Duration) (time.Duration, time.Duration) {
	if warmup <= 0 {
		warmup = 2 * time.Second
	}
	if measure <= 0 {
		measure = def
	}
	return warmup, measure
}

// sweep runs run(c) for every configuration on the MaxParallel pool and
// returns the results in input order. run must not write state shared
// with its siblings.
func sweep[C, R any](cfgs []C, run func(C) R) []R {
	out := make([]R, len(cfgs))
	runIndexed(len(cfgs), func(i int) { out[i] = run(cfgs[i]) })
	return out
}
