// Command meshbench reproduces every table and figure of the paper's
// evaluation (and this repo's extensions) and prints them as text
// tables. See DESIGN.md for the experiment index.
//
// Usage:
//
//	meshbench -exp fig4                # the paper's Fig. 4 sweep
//	meshbench -exp all -measure 20s    # everything, paper-scale windows
//	meshbench -exp ablation -rps 40
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"meshlayer"
	"meshlayer/internal/simnet"
)

// options are the parsed flags the experiments read.
type options struct {
	seed            int64
	rps             float64
	levels          []float64
	warmup, measure time.Duration
	opt             meshlayer.Optimization
	chart, csv      bool
	zones, subs     int
	mixed           meshlayer.MixedConfig // the window, for the MixedConfig runners

	stdout io.Writer
	points []meshlayer.SweepPoint // the fig4/licost sweep, run once
}

// sweep runs the Fig. 4 sweep on first use, so fig4 and licost share
// one sweep and one header under -exp all.
func (o *options) sweep() []meshlayer.SweepPoint {
	if o.points == nil {
		fmt.Fprintf(o.stdout, "# sweep: opts=%s levels=%v measure=%v seed=%d\n\n", o.opt, o.levels, o.measure, o.seed)
		o.points = meshlayer.RunSweep(meshlayer.SweepConfig{
			RPSLevels: o.levels,
			Opt:       o.opt,
			Seed:      o.seed,
			Warmup:    o.warmup,
			Measure:   o.measure,
		})
	}
	return o.points
}

// experiment is one -exp id; show runs it and returns its table ("" to
// print nothing).
type experiment struct {
	name string
	// explicit experiments run only when named, never under -exp all.
	explicit bool
	// wallClock output depends on the host, so it has no golden.
	wallClock bool
	show      func(o *options) string
}

// windowed shows a runner that takes the seed and the window.
func windowed[R any](run func(int64, time.Duration, time.Duration) R, format func(R) string) func(*options) string {
	return func(o *options) string { return format(run(o.seed, o.warmup, o.measure)) }
}

// experiments in -exp all order.
var experiments = []experiment{
	{name: "fig4", show: func(o *options) string {
		p := o.sweep()
		var s string
		if o.csv {
			s = strings.TrimSuffix(meshlayer.CSVFig4(p), "\n")
		} else {
			s = meshlayer.FormatFig4(p)
		}
		if o.chart {
			s += "\n" + meshlayer.ChartFig4(p)
		}
		return s
	}},
	{name: "licost", show: func(o *options) string {
		p := o.sweep()
		if o.csv {
			return ""
		}
		return meshlayer.FormatLICost(p)
	}},
	{name: "overhead", show: func(o *options) string {
		return meshlayer.FormatOverhead(meshlayer.RunSidecarOverhead(2000, o.seed))
	}},
	{name: "ablation", show: func(o *options) string {
		return meshlayer.FormatAblation(meshlayer.RunAblation(o.rps, o.seed, o.mixed), o.rps)
	}},
	{name: "scavenger", show: func(o *options) string {
		return meshlayer.FormatScavenger(meshlayer.RunScavenger(o.seed))
	}},
	{name: "adaptivelb", show: func(o *options) string {
		return meshlayer.FormatAdaptiveLB(meshlayer.RunAdaptiveLB(50, o.seed))
	}},
	{name: "redundant", show: func(o *options) string {
		return meshlayer.FormatRedundant(meshlayer.RunRedundant(30, o.seed))
	}},
	{name: "hops", show: func(o *options) string {
		return meshlayer.FormatHopDepth(meshlayer.RunHopDepth(nil, 500, o.seed))
	}},
	{name: "bottleneck", show: func(o *options) string {
		return meshlayer.FormatBottleneck(meshlayer.RunBottleneckSweep(nil, o.seed, o.mixed))
	}},
	{name: "skew", show: func(o *options) string {
		return meshlayer.FormatSkew(meshlayer.RunSkewSweep(nil, o.seed, o.mixed))
	}},
	{name: "resilience", show: func(o *options) string {
		return meshlayer.FormatResilience(meshlayer.RunResilience(30, o.seed))
	}},
	{name: "qdisc", show: func(o *options) string {
		return meshlayer.FormatQdiscComparison(meshlayer.RunQdiscComparison(o.rps, o.seed, o.mixed), o.rps)
	}},
	{name: "overload", show: windowed(meshlayer.RunOverload, meshlayer.FormatOverload)},
	{name: "chaos", show: windowed(meshlayer.RunChaos, meshlayer.FormatChaos)},
	{name: "zonefail", show: windowed(meshlayer.RunZoneFail, meshlayer.FormatZoneFail)},
	{name: "ctrlplane", show: windowed(meshlayer.RunCtrlPlane, meshlayer.FormatCtrlPlane)},
	{name: "federation", show: windowed(meshlayer.RunFederation, meshlayer.FormatFederation)},
	// E16 measures the simulator itself (wall-clock, host-dependent).
	{name: "engine", explicit: true, wallClock: true, show: func(o *options) string {
		return meshlayer.FormatEngine(meshlayer.RunEngineBench(0, 0))
	}},
	// E20 is deterministic but deliberately heavyweight (a 10k-pod sweep).
	{name: "fidelity", explicit: true, show: func(o *options) string {
		return meshlayer.FormatFidelity(meshlayer.RunFidelityBench(o.zones, 0))
	}},
	// E21 runs a 10k-sidecar fleet under hybrid fidelity (its own
	// per-network setting); explicit-only for the same reason as E20.
	{name: "ctrlscale", explicit: true, show: func(o *options) string {
		return meshlayer.FormatCtrlScale(meshlayer.RunCtrlScale(o.seed, o.subs, o.warmup, o.measure))
	}},
}

func expUsage() string {
	var names, explicit []string
	for _, e := range experiments {
		names = append(names, e.name)
		if e.explicit {
			explicit = append(explicit, e.name)
		}
	}
	return fmt.Sprintf("experiment: %s|all (%s are never part of all)",
		strings.Join(names, "|"), strings.Join(explicit, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is meshbench with its arguments and output streams passed in; it
// returns the process exit code (2 for bad input, before any
// simulation runs).
func run(args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout}
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", expUsage())
	fs.Int64Var(&o.seed, "seed", 1, "random seed (same seed = identical run)")
	fs.Float64Var(&o.rps, "rps", 40, "per-workload RPS for the ablation experiment")
	levels := fs.String("levels", "10,20,30,40,50", "comma-separated RPS levels for the fig4 sweep")
	fs.DurationVar(&o.warmup, "warmup", 2*time.Second, "warm-up excluded from measurement")
	fs.DurationVar(&o.measure, "measure", 20*time.Second, "measured window per run")
	opts := fs.String("opts", "routing,tc", "optimizations for the fig4 sweep: routing,tc,scavenger,sdn")
	fs.BoolVar(&o.chart, "chart", false, "also render fig4 as an ASCII chart")
	fs.BoolVar(&o.csv, "csv", false, "emit fig4 as CSV instead of a table")
	parallel := fs.Int("parallel", meshlayer.MaxParallel, "max concurrent simulation runs per sweep (1 = sequential; output is identical either way)")
	fidelity := fs.String("fidelity", "packet", "simulation fidelity for every experiment: packet|flow|hybrid (E20 compares all three itself, regardless)")
	fs.IntVar(&o.zones, "zones", 0, "E20 fan-in zone count, 100 pods each (0 = the full 100-zone, 10k-pod sweep)")
	fs.IntVar(&o.subs, "subs", 0, "E21 subscriber (worker sidecar) count (0 = the full 10k fleet)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "meshbench: "+format+"\n", a...)
		return 2
	}

	fid, err := simnet.ParseFidelity(*fidelity)
	if err != nil {
		return fail("%v", err)
	}
	if o.levels, err = parseLevels(*levels); err != nil {
		return fail("%v", err)
	}
	if o.opt, err = meshlayer.ParseOptimizations(*opts); err != nil {
		return fail("%v", err)
	}
	// The library substitutes defaults for zero and negative values, so
	// they never mean what was asked for.
	switch {
	case o.rps <= 0:
		return fail("-rps must be positive, got %v", o.rps)
	case o.warmup <= 0:
		return fail("-warmup must be positive, got %v", o.warmup)
	case o.measure <= 0:
		return fail("-measure must be positive, got %v", o.measure)
	case o.zones < 0:
		return fail("-zones must be >= 0, got %d", o.zones)
	case o.subs < 0 || o.subs%meshlayer.CtrlScalePodsPerShard != 0:
		return fail("-subs must be 0 (the full fleet) or a positive multiple of %d, got %d",
			meshlayer.CtrlScalePodsPerShard, o.subs)
	}
	var selected []experiment
	for _, e := range experiments {
		if e.name == *exp || (*exp == "all" && !e.explicit) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fail("unknown experiment %q", *exp)
	}

	if *parallel > 0 {
		meshlayer.MaxParallel = *parallel
	}
	simnet.SetDefaultFidelity(fid)
	o.mixed = meshlayer.MixedConfig{Warmup: o.warmup, Measure: o.measure}
	for _, e := range selected {
		if s := e.show(&o); s != "" {
			fmt.Fprintln(stdout, s)
		}
	}
	return 0
}

func parseLevels(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad RPS level %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no RPS levels")
	}
	return out, nil
}
