package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"meshlayer"
)

// childResult is what one child process reports to the parent on its
// standard output.
type childResult struct {
	Jobs []jobResult `json:"jobs"`
	// PeakRSSKB is the child's own resident-set high-water mark.
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// Traced children only: per-module shares of CPU time and of
	// allocated objects, in percent.
	CPU   map[string]float64 `json:"cpu,omitempty"`
	Alloc map[string]float64 `json:"alloc,omitempty"`
	// Calls children only: call.* results.
	Calls map[string]float64 `json:"calls,omitempty"`
}

type jobResult struct {
	Name    string `json:"name"`
	SetupNS int64  `json:"setup_ns"`
	WallNS  int64  `json:"wall_ns"`
	// Heap activity over the kept set-up and the run, and the GC
	// cycles the program triggered (forced ones excluded).
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCycles   uint32             `json:"gc_cycles"`
	Err        string             `json:"err,omitempty"`
	Values     map[string]float64 `json:"values"`
}

func runChild(mode string, w workloadDef, seed int64) error {
	// The sweep pool is not used by the jobs below, but pin it so that
	// nothing the program starts runs in parallel with the job.
	meshlayer.MaxParallel = 1
	var res childResult
	switch mode {
	case "calls":
		var err error
		if res.Calls, err = runCalls(); err != nil {
			return err
		}
	case "run":
		runtime.MemProfileRate = 0
		res = runJobs(w, seed)
	case "traced":
		// Sample one allocation per 8 KiB instead of 512 KiB so that
		// small per-packet allocations show in alloc.*.
		runtime.MemProfileRate = 8 << 10
		var cpu bytes.Buffer
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return err
		}
		res = runJobs(w, seed)
		pprof.StopCPUProfile()
		var allocs bytes.Buffer
		if err := pprof.Lookup("allocs").WriteTo(&allocs, 0); err != nil {
			return err
		}
		var err error
		if res.CPU, err = attribute(cpu.Bytes(), "cpu"); err != nil {
			return err
		}
		if res.Alloc, err = attribute(allocs.Bytes(), "alloc_objects"); err != nil {
			return err
		}
		dir := filepath.Join(buildDir(), "profiles")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for name, b := range map[string][]byte{"cpu": cpu.Bytes(), "allocs": allocs.Bytes()} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.pprof", w.name, name))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	var err error
	if res.PeakRSSKB, err = peakRSSKB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// peakRSSKB reads VmHWM, the high-water mark of this process's own
// address space. The rusage a parent collects would not do: Linux
// carries the parent's RSS at fork into the child's maxrss.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runJobs runs every job of w in turn.
func runJobs(w workloadDef, seed int64) childResult {
	var res childResult
	for _, j := range w.jobs {
		res.Jobs = append(res.Jobs, runJob(j, seed))
	}
	return res
}

// runJob times setupReps set-ups, keeps the last, and times its run.
// Heap counters cover the kept set-up and the run. A panic is reported
// as the job's error.
func runJob(j job, seed int64) (jr jobResult) {
	jr.Name = j.name
	defer func() {
		if r := recover(); r != nil {
			jr.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	var run func() (map[string]float64, error)
	var ms0, ms1 runtime.MemStats
	setups := make([]int64, setupReps)
	for i := range setups {
		run = nil
		runtime.GC()
		if i == len(setups)-1 {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		run = j.setup(seed)
		setups[i] = int64(time.Since(t0))
	}
	t0 := time.Now()
	vals, err := run()
	jr.WallNS = int64(time.Since(t0))
	runtime.ReadMemStats(&ms1)
	slices.Sort(setups)
	jr.SetupNS = setups[len(setups)/2]
	jr.Mallocs = ms1.Mallocs - ms0.Mallocs
	jr.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	jr.GCCycles = (ms1.NumGC - ms0.NumGC) - (ms1.NumForcedGC - ms0.NumForcedGC)
	jr.Values = vals
	if err != nil {
		jr.Err = err.Error()
	}
	return jr
}
