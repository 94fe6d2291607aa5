package bench

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"
)

// Spread is one timing's median and quartiles over the measured reps,
// each by the nearest rank.
type Spread struct{ Q1, Median, Q3 time.Duration }

// spreadOf sorts ds in place and reads its quartiles; ds is non-empty.
func spreadOf(ds []time.Duration) Spread {
	slices.Sort(ds)
	at := func(q float64) time.Duration { return ds[int(q*float64(len(ds)-1)+0.5)] }
	return Spread{at(0.25), at(0.5), at(0.75)}
}

// op performs one operation of a timed cell on processor proc.
type op func(proc int) error

// window is the shortest timed batch: one operation can take well under
// a microsecond, below the timer's useful resolution.
const window = 50 * time.Microsecond

// timeCells times a set of cells that are compared with each other, each
// on procs processors, and returns every cell's spread over reps reps.
//
// Every timing in the set uses one batch size, sized so that the fastest
// cell's batch on processor 0 fills the window, and so every cell's
// does; two cells that run the same loop are then timed alike. Each rep
// visits the cells in a seeded shuffled order, so host drift lands on
// every cell rather than on the ratio between them. A cell's rep sample
// is the maximum over processors (the paper's reporting, Section 6.1) of
// its per-operation time, and each processor's timed batch follows one
// untimed operation on that processor, which brings its data into cache.
func timeCells(procs, reps int, cells []op) ([]Spread, error) {
	if reps < 1 {
		return nil, fmt.Errorf("bench: need reps ≥ 1, got %d", reps)
	}
	run := func(c op, proc, batch int) (time.Duration, error) {
		if err := c(proc); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			if err := c(proc); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(batch), nil
	}
	batch := 1
	for ; batch < 1<<20; batch *= 2 {
		fastest := time.Duration(1<<63 - 1)
		for _, c := range cells {
			d, err := run(c, 0, batch)
			if err != nil {
				return nil, err
			}
			fastest = min(fastest, d)
		}
		if fastest*time.Duration(batch) >= window {
			break
		}
	}
	times := make([][]time.Duration, len(cells))
	rng := rand.New(rand.NewPCG(1, 2))
	for range reps {
		for _, i := range rng.Perm(len(cells)) {
			var worst time.Duration
			for proc := 0; proc < procs; proc++ {
				d, err := run(cells[i], proc, batch)
				if err != nil {
					return nil, err
				}
				worst = max(worst, d)
			}
			times[i] = append(times[i], worst)
		}
	}
	spreads := make([]Spread, len(cells))
	for i, ts := range times {
		spreads[i] = spreadOf(ts)
	}
	return spreads, nil
}
