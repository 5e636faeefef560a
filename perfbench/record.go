package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// unitOf gives each reported metric its unit.
func unitOf(name string) string {
	switch {
	case name == "wall_s", name == "setup_s", name == "prof.overhead_s", name == "sim.seconds":
		return "s"
	case name == "allocs_m":
		return "M"
	case name == "alloc_mb", name == "peak_rss_mb", name == "ctrlplane.push_mb":
		return "MiB"
	case name == "ok_frac", name == "ctrlplane.useful_frac":
		return "frac"
	case strings.HasPrefix(name, "cpu."), strings.HasPrefix(name, "alloc."):
		return "%"
	case strings.HasSuffix(name, "_ns"):
		return "ns/op"
	case strings.HasSuffix(name, "_b"):
		return "B/op"
	case strings.HasSuffix(name, "_allocs"):
		return "allocs/op"
	case name == "simnet.ns_per_event":
		return "ns"
	}
	return "count"
}

// printRecord prints the run record line: what was run, where, and
// how steady this run's own wall times were. walls are scaled to the
// reference speed; rawWalls are as measured, and calibs are the
// calibration kernel times that scaled them (see calib.go).
func printRecord(w workloadDef, seed int64, seconds int, traced bool, walls, rawWalls, calibs []float64) {
	q1, q3 := quartiles(walls)
	med := median(walls)
	rec := map[string]any{
		"workload":    w.name,
		"seed":        seed,
		"seconds":     seconds,
		"trace":       traced,
		"runs":        len(walls),
		"wall_s":      walls,
		"wall_spread": (q3 - q1) / med,
		"raw_wall_s":  rawWalls,
		"calib_s":     calibs,
		"calib_ref_s": calibRef,
		"commit":      commit(),
		"source":      sourceDigest(),
		"go":          runtime.Version(),
		"gomaxprocs":  min(procs, runtime.NumCPU()),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
		return
	}
	fmt.Printf("record %s\n", b)
}

// commit is the checkout's git commit, or "none" when the checkout is
// not a git repository; source identifies the code either way.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout
// (hidden directories, such as the build directory, left out).
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
