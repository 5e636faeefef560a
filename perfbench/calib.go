package main

import (
	"math/rand"
	"time"
)

// The benchmark's host is shared, and its speed drifts by tens of
// percent over minutes as other tenants contend for memory. The parent
// therefore times a fixed calibration kernel in the gaps before,
// between and after the children, and scales each child's host times
// by calibRef over the median kernel time of the gaps on either side
// of it. wall_s and setup_s are thus what the run would have taken on
// a host where the kernel takes calibRef. The kernel runs in the
// parent, which holds nothing of the simulator, so a change to the
// simulator cannot move it.

const (
	// calibRef is the kernel's median time on the reference host (a
	// 2-vCPU Intel Xeon VM, Go 1.24). It only sets the scale.
	calibRef = 0.16
	// calibReps kernels run in each gap.
	calibReps = 3
	// calibSize int32s (16 MiB) are chased, calibSteps per kernel.
	calibSize  = 4 << 20
	calibSteps = 1_000_000
)

// calibrator chases pointers through a random cycle larger than the
// last-level cache: its time follows the memory latency that the
// simulator's pointer-heavy event loop and GC also wait on.
type calibrator struct {
	next []int32
	pos  int32
}

func newCalibrator() *calibrator {
	next := make([]int32, calibSize)
	for i := range next {
		next[i] = int32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every slot.
	r := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &calibrator{next: next}
}

// measure times calibReps kernels, in seconds.
func (c *calibrator) measure() []float64 {
	out := make([]float64, calibReps)
	for i := range out {
		t0 := time.Now()
		x := c.pos
		for k := 0; k < calibSteps; k++ {
			x = c.next[x]
		}
		c.pos = x
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
