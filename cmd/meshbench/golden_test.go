package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"meshlayer"
	"meshlayer/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// golden is one stored meshbench run: its stdout lives in
// testdata/golden/<name>.txt.
type golden struct {
	name string
	args []string
}

// smokeWindow is the window and seed of the fault-ladder determinism
// runs; shortWindow keeps every other experiment to about a second.
var (
	smokeWindow = []string{"-warmup", "1s", "-measure", "4s", "-seed", "7"}
	shortWindow = []string{"-warmup", "1s", "-measure", "1s"}
)

// goldenArgs overrides shortWindow for the experiments whose goldens
// replay the fault-ladder and fast-path smoke runs.
var goldenArgs = map[string][]string{
	"chaos":      smokeWindow,
	"zonefail":   smokeWindow,
	"ctrlplane":  smokeWindow,
	"federation": smokeWindow,
	"ctrlscale":  {"-subs", "1000", "-warmup", "1s", "-measure", "12s", "-seed", "7"},
	"fidelity":   {"-zones", "20"},
}

// goldens lists one entry per deterministic experiment in the table,
// plus the chaos ladder under the flow and hybrid fidelities.
func goldens() []golden {
	var out []golden
	for _, e := range experiments {
		if e.wallClock {
			continue
		}
		args, ok := goldenArgs[e.name]
		if !ok {
			args = shortWindow
		}
		out = append(out, golden{e.name, append([]string{"-exp", e.name}, args...)})
	}
	for _, fid := range []string{"flow", "hybrid"} {
		out = append(out, golden{"chaos-" + fid, append([]string{"-exp", "chaos", "-fidelity", fid}, smokeWindow...)})
	}
	return out
}

// TestGoldens replays every deterministic experiment and compares its
// output byte for byte with the stored golden. Sweeps run with
// MaxParallel = GOMAXPROCS, so `-cpu 1,4` checks that sequential and
// parallel runs both reproduce the same bytes.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short mode")
	}
	saved := meshlayer.MaxParallel
	defer func() { meshlayer.MaxParallel = saved }()
	entries := goldens()
	stored, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stored {
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		if !slices.ContainsFunc(entries, func(g golden) bool { return g.name == name }) {
			t.Errorf("%s has no entry in goldens(); delete it or add the entry", path)
		}
	}
	for _, g := range entries {
		t.Run(g.name, func(t *testing.T) {
			meshlayer.MaxParallel = runtime.GOMAXPROCS(0)
			// -fidelity sets a process-wide default; later entries must
			// not inherit it.
			defer simnet.SetDefaultFidelity(simnet.DefaultFidelity())
			var stdout, stderr bytes.Buffer
			if code := run(g.args, &stdout, &stderr); code != 0 {
				t.Fatalf("meshbench %s: exit %d: %s", strings.Join(g.args, " "), code, stderr.String())
			}
			path := filepath.Join("testdata", "golden", g.name+".txt")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test ./cmd/meshbench -run TestGoldens -update)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("meshbench %s differs from %s:\n%s\nregenerate with: go test ./cmd/meshbench -run TestGoldens -update",
					strings.Join(g.args, " "), path, lineDiff(string(want), stdout.String()))
			}
		})
	}
}

// lineDiff renders the lines between the common prefix and suffix of
// want and got, "-" for want and "+" for got.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	pre := 0
	for pre < len(w) && pre < len(g) && w[pre] == g[pre] {
		pre++
	}
	suf := 0
	for suf < len(w)-pre && suf < len(g)-pre && w[len(w)-1-suf] == g[len(g)-1-suf] {
		suf++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "@@ line %d @@\n", pre+1)
	for _, l := range w[pre : len(w)-suf] {
		b.WriteString("- " + l + "\n")
	}
	for _, l := range g[pre : len(g)-suf] {
		b.WriteString("+ " + l + "\n")
	}
	return b.String()
}
