package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"meshlayer/internal/metrics"
)

// Spreads are judged with Python's statistics.quantiles(n=4), and
// the run record must report the same numbers.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestFirstDiffFindsNondeterminism(t *testing.T) {
	a := map[string]float64{"sim.p99_ms": 1.5, "simnet.events": 10}
	if d := firstDiff(a, map[string]float64{"sim.p99_ms": 1.5, "simnet.events": 10}); d != "" {
		t.Fatalf("identical maps differ: %s", d)
	}
	if d := firstDiff(a, map[string]float64{"sim.p99_ms": 1.5, "simnet.events": 11}); d == "" {
		t.Fatal("changed counter not reported")
	}
	if d := firstDiff(a, map[string]float64{"sim.p99_ms": 1.5}); d == "" {
		t.Fatal("missing key not reported")
	}
	if d := firstDiff(map[string]float64{"x": math.NaN()}, map[string]float64{"x": math.NaN()}); d != "" {
		t.Fatalf("bit-identical NaNs differ: %s", d)
	}
}

var sinkRegistry *metrics.Registry

// Allocations made inside meshlayer/internal/metrics must be charged to
// the metrics bucket, including the map and string work it calls.
func TestAttributeChargesInnermostModule(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	reg := metrics.NewRegistry()
	for i := 0; i < 2000; i++ {
		reg.ObserveDuration("perfbench_test_duration", metrics.Labels{"i": string(rune('a' + i%26))}, time.Duration(i))
	}
	sinkRegistry = reg
	runtime.GC() // publish the allocation samples
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	shares, err := attribute(buf.Bytes(), "alloc_objects")
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Fatalf("shares sum to %v, want 100", total)
	}
	if shares["metrics"] < 10 {
		t.Fatalf("metrics share %.2f%%, want the bulk of the allocations (%v)", shares["metrics"], shares)
	}
}
