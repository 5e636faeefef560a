// Package indexownedtest seeds violations for the indexowned analyzer.
package indexownedtest

// runIndexed mimics the root package's bounded worker pool: fn(i) runs
// concurrently for every index, so the analyzer inspects each closure
// literal handed to any function of this name.
func runIndexed(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

type result struct {
	lat   float64
	count int
}

// ownedWrites is the sanctioned pattern: every write lands in a slot
// addressed by the worker's own index, directly or derived.
func ownedWrites(out []result, halves []result) {
	runIndexed(2*len(out), func(k int) {
		i := k / 2 // derived from the index: still owned
		out[i].lat = float64(k)
		out[k/2].count++
		halves[i] = out[i]
		local := 0 // closure-local state is private
		local++
		_ = local
	})
}

// sharedWrites breaks ownership in every way the analyzer tracks.
func sharedWrites(out []result, byName map[string]int, results chan int) {
	total := 0
	var all []int
	runIndexed(len(out), func(i int) {
		total++              // want "runIndexed worker writes shared total without indexing by its worker index"
		all = append(all, i) // want "runIndexed worker writes shared all without indexing by its worker index"
		byName["x"] = i      // want "runIndexed worker writes shared byName without indexing by its worker index"
		out[0].count = i     // want "runIndexed worker writes shared out without indexing by its worker index"
		results <- i         // want "runIndexed worker sends on shared channel results"
	})
	_ = total
}

// allowed shows a justified exception: a commutative, mutex-guarded
// aggregate can tolerate unordered writes.
func allowed(out []result) {
	total := 0
	runIndexed(len(out), func(i int) {
		//meshvet:allow indexowned testdata fixture: commutative aggregate guarded elsewhere
		total += i
	})
	_ = total
}

// runIndexedWorkers and sweep are the pool's other entry points; their
// worker closures follow the same rule.
func runIndexedWorkers(n, workers int, fn func(i int)) { runIndexed(n, fn) }

func sweep[C, R any](cfgs []C, run func(C) R) []R {
	out := make([]R, len(cfgs))
	runIndexed(len(cfgs), func(i int) { out[i] = run(cfgs[i]) })
	return out
}

// sweepWrites returns its results instead of writing them; a sweep
// worker writing captured state is the same race.
func sweepWrites(cfgs []int, out []result) []result {
	total := 0
	runIndexedWorkers(len(out), 2, func(k int) {
		out[k].count = k
		total += k // want "runIndexedWorkers worker writes shared total without indexing by its worker index"
	})
	return sweep(cfgs, func(c int) result {
		r := result{count: c} // closure-local state is private
		r.lat = float64(total)
		out[c] = r
		total++ // want "sweep worker writes shared total without indexing by its worker index"
		return r
	})
}
