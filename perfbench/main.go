// Command perfbench measures what one seeded experiment of the
// meshlayer simulator costs its user in host time and memory, end to
// end and per module, on three workloads that each load a different
// layer. See README.md for the workloads, metrics and the A/B
// procedure.
//
//	perfbench --workload paper-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Each measured
// simulation runs in a fresh child process of this binary, one at a
// time, so peak RSS is the job's own and a hung or crashed job can be
// stopped and counted as failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

const (
	// minRuns children are always measured: the median needs three
	// and the determinism check needs two.
	minRuns = 3
	maxRuns = 40
	// procs is the GOMAXPROCS of every child (capped at nproc): the
	// simulation is single-threaded, the second P runs the GC.
	procs = 2
	// setupReps builds each job's topology this many times per child;
	// setup_s is the median.
	setupReps = 5
)

func main() {
	workload := flag.String("workload", "", "workload: paper-mix, rpc-chain or ctrl-storm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement budget of one run, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	child := flag.String("child", "", "internal: run one measured child (run, traced or calls)")
	flag.Parse()

	w, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-mix|rpc-chain|ctrl-storm, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	if *child != "" {
		if err := runChild(*child, w, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := runParent(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
