package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// childGuard stops a child that runs this long; its jobs count as
	// failed. The whole benchmark must end within 180 s.
	childGuard = 150 * time.Second
	// runDeadline is the latest a child may still be running, counted
	// from the benchmark's start.
	runDeadline = 170 * time.Second
)

// child is one finished child process.
type child struct {
	res childResult
	err error
	// scale converts the child's host times to the reference speed
	// (see calib.go); 1 for children that are not calibrated.
	scale float64
}

// summed end-to-end values of one workload child; wallS and setupS
// are scaled, rawWallS is as measured.
type childTotals struct {
	rawWallS, wallS, setupS, allocsM, allocMB, rssMB float64
}

func (c *child) totals() childTotals {
	var t childTotals
	for _, j := range c.res.Jobs {
		t.rawWallS += float64(j.WallNS) / 1e9
		t.setupS += float64(j.SetupNS) / 1e9 * c.scale
		t.allocsM += float64(j.Mallocs) / 1e6
		t.allocMB += float64(j.AllocBytes) / (1 << 20)
	}
	t.wallS = t.rawWallS * c.scale
	t.rssMB = float64(c.res.PeakRSSKB) / 1024
	return t
}

func runParent(w workloadDef, seed int64, seconds int, traced bool) (*result, error) {
	start := time.Now()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spawn := func(mode string) child {
		args := []string{"-child", mode, "-workload", w.name, "-seed", fmt.Sprint(seed)}
		c := runChildProcess(exe, args, min(childGuard, runDeadline-time.Since(start)))
		c.scale = 1
		return c
	}

	var kids []child
	var tracedKid, callsKid child
	var calibs []float64 // each plain child's calibration time
	if traced {
		kids = append(kids, spawn("run"))
		tracedKid = spawn("traced")
		callsKid = spawn("calls")
	} else {
		budget := time.Duration(seconds) * time.Second
		cal := newCalibrator()
		gaps := [][]float64{cal.measure()}
		for {
			t0 := time.Now()
			kids = append(kids, spawn("run"))
			gaps = append(gaps, cal.measure())
			last := time.Since(t0)
			if len(kids) >= maxRuns || (len(kids) >= minRuns && time.Since(start)+last > budget) {
				break
			}
			if time.Since(start)+last > runDeadline-10*time.Second {
				break
			}
		}
		for i := range kids {
			kids[i].scale = calibRef / median(append(slices.Clone(gaps[i]), gaps[i+1]...))
			calibs = append(calibs, calibRef/kids[i].scale)
		}
	}

	v := &verdict{w: w}
	for i := range kids {
		v.judge(fmt.Sprintf("run %d", i+1), &kids[i])
	}
	if traced {
		v.judge("traced run", &tracedKid)
		v.attempted++
		if callsKid.err != nil {
			v.failed++
			report("calls run", callsKid.err)
		}
	}

	var ok []childTotals
	for i := range kids {
		if kids[i].err == nil {
			ok = append(ok, kids[i].totals())
		}
	}
	if len(ok) == 0 {
		return nil, errors.New("no child completed")
	}
	ref := v.ref
	printSim(ref)
	walls := pick(ok, func(t childTotals) float64 { return t.wallS })
	printRecord(w, seed, seconds, traced, walls, pick(ok, func(t childTotals) float64 { return t.rawWallS }), calibs)

	res := &result{
		Correct:   v.failed == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   map[string]metric{},
	}
	put := func(name string, value float64) { res.Metrics[name] = metric{value, unitOf(name)} }
	if !traced {
		put("wall_s", median(walls))
		put("setup_s", median(pick(ok, func(t childTotals) float64 { return t.setupS })))
		put("allocs_m", median(pick(ok, func(t childTotals) float64 { return t.allocsM })))
		put("alloc_mb", median(pick(ok, func(t childTotals) float64 { return t.allocMB })))
		put("peak_rss_mb", median(pick(ok, func(t childTotals) float64 { return t.rssMB })))
		put("ok_frac", float64(v.attempted-v.failed)/float64(v.attempted))
		return res, nil
	}

	// Per-layer metrics: counters from the untraced child, shares from
	// the traced one, call costs from the calls child.
	sum := make(map[string]float64)
	var gcs uint32
	for _, j := range ref.res.Jobs {
		for k, x := range j.Values {
			sum[k] += x
		}
		gcs += j.GCCycles
	}
	for _, name := range []string{
		"simnet.events", "simnet.pkts", "simnet.drops",
		"flow.started", "flow.demoted", "flow.recomputes",
		"mesh.requests", "mesh.retries",
		"ctrlplane.pushes", "ctrlplane.timeouts", "ctrlplane.resyncs",
		"trace.spans", "sim.requests", "sim.seconds",
	} {
		put(name, sum[name])
	}
	put("ctrlplane.push_mb", sum["ctrlplane.push_bytes"]/(1<<20))
	useful := 1.0 // no pushes, nothing wasted
	if p := sum["ctrlplane.pushes"]; p > 0 {
		useful = (p - sum["ctrlplane.timeouts"]) / p
	}
	put("ctrlplane.useful_frac", useful)
	put("gc.cycles", float64(gcs))
	wall := ref.totals().rawWallS
	if ev := sum["simnet.events"]; ev > 0 {
		put("simnet.ns_per_event", wall*1e9/ev)
	} else {
		put("simnet.ns_per_event", 0)
	}
	digest, n := simDigest(ref)
	put("sim.digest", digest)
	put("sim.values", float64(n))
	for _, m := range append(append([]string{}, modules...), "gc", "other") {
		put("cpu."+m, tracedKid.res.CPU[m])
		if m != "gc" {
			put("alloc."+m, tracedKid.res.Alloc[m])
		}
	}
	if tracedKid.err == nil {
		put("prof.overhead_s", tracedKid.totals().rawWallS-wall)
	} else {
		put("prof.overhead_s", 0)
	}
	for _, name := range callMetrics {
		put(name, callsKid.res.Calls[name])
	}
	return res, nil
}

// runChildProcess runs this binary with args, stops it after guard,
// and decodes its result. Its standard error passes through.
func runChildProcess(exe string, args []string, guard time.Duration) child {
	if guard <= 0 {
		return child{err: fmt.Errorf("no time left in the run")}
	}
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var c child
	switch {
	case ctx.Err() != nil:
		c.err = fmt.Errorf("stopped after %v (hang guard)", guard)
	case err != nil:
		c.err = fmt.Errorf("child %v: %w", args[:2], err)
	default:
		if err := json.Unmarshal(out.Bytes(), &c.res); err != nil {
			c.err = fmt.Errorf("child %v output: %w", args[:2], err)
		}
	}
	return c
}

// verdict counts attempted and failed jobs. Jobs fail by erroring,
// panicking, failing the workload's cross-job check, being stopped by
// the hang guard, or producing values that differ from the first
// completed run of the same seed (nondeterminism).
type verdict struct {
	w                 workloadDef
	ref               *child
	attempted, failed int
}

func report(where string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", where, err)
}

func (v *verdict) judge(where string, c *child) {
	n := len(v.w.jobs)
	v.attempted += n
	if c.err == nil && len(c.res.Jobs) != n {
		c.err = fmt.Errorf("reported %d jobs, want %d", len(c.res.Jobs), n)
	}
	if c.err != nil {
		v.failed += n
		report(where, c.err)
		return
	}
	bad := make(map[string]error)
	byName := make(map[string]map[string]float64)
	for _, j := range c.res.Jobs {
		byName[j.Name] = j.Values
		if j.Err != "" {
			bad[j.Name] = fmt.Errorf("%s", j.Err)
		}
	}
	if len(bad) == 0 && v.w.check != nil {
		if blame, err := v.w.check(byName); err != nil {
			bad[blame] = err
		}
	}
	if v.ref == nil {
		v.ref = c
	} else {
		for i, j := range c.res.Jobs {
			if diff := firstDiff(v.ref.res.Jobs[i].Values, j.Values); diff != "" && bad[j.Name] == nil {
				bad[j.Name] = fmt.Errorf("nondeterministic: %s", diff)
			}
		}
	}
	for name, err := range bad {
		v.failed++
		report(where+" job "+name, err)
	}
}

// firstDiff names the first key whose value differs between a and b.
func firstDiff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		x, okx := a[k]
		y, oky := b[k]
		if okx != oky || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("%s %v vs %v", k, x, y)
		}
	}
	return ""
}

// simDigest fingerprints every deterministic value of a run (simulated
// results and layer counters) as a 52-bit integer, exact in a float64.
func simDigest(c *child) (float64, int) {
	h := fnv.New64a()
	n := 0
	for _, j := range c.res.Jobs {
		keys := make([]string, 0, len(j.Values))
		for k := range j.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s/%s=%x;", j.Name, k, math.Float64bits(j.Values[k]))
			n++
		}
	}
	return float64(h.Sum64() >> 12), n
}

// printSim lists the simulated results, which are exact and
// workload-specific, before the result line.
func printSim(c *child) {
	for _, j := range c.res.Jobs {
		keys := make([]string, 0, len(j.Values))
		for k := range j.Values {
			if strings.HasPrefix(k, "sim.") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("sim %s.%s = %v\n", j.Name, strings.TrimPrefix(k, "sim."), j.Values[k])
		}
	}
}

func pick(ts []childTotals, f func(childTotals) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the same
// (exclusive) method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := j * (n + 1)
		k, r := m/4, m%4
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + float64(r)*(s[k]-s[k-1])/4
	}
	return at(1), at(3)
}

// buildDir is where the benchmark keeps what it writes: the directory
// the build uses, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
