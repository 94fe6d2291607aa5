package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/section"
)

// TestPlanOracleSweep decodes served plan documents over a seeded sweep
// of keys and re-simulates every rank from its start_local, gaps and
// count alone, checking the addresses against the paper's definition
// (core.Problem.Addresses) and total_count against the section count.
func TestPlanOracleSweep(t *testing.T) {
	keys := []PlanRequest{
		{P: 4, K: 8, L: 4, U: 319, S: 9},   // paper example, single cycle
		{P: 4, K: 8, L: 0, U: 999, S: 6},   // gcd(s, pk) = 2
		{P: 5, K: 1, L: 3, U: 500, S: 7},   // k = 1
		{P: 3, K: 4, L: 2, U: 5000, S: 29}, // s > pk
		{P: 4, K: 8, L: 0, U: 10, S: 1},    // ranks 2 and 3 own nothing
		{P: 4, K: 8, L: 0, U: 8, S: 1},     // rank 1 owns one element
		{P: 4, K: 8, L: 5, U: 200, S: 32},  // s = pk: one rank owns all
		{P: 1, K: 3, L: 0, U: 0, S: 5},     // a single element
		{P: 8, K: 16, L: 7, U: 999, S: 7, N: 4000},
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		p, k := r.Int63n(9)+1, r.Int63n(20)+1
		l := r.Int63n(3 * p * k)
		s := r.Int63n(3*p*k) + 1
		keys = append(keys, PlanRequest{P: p, K: k, L: l, U: l + r.Int63n(6*p*k*s), S: s})
	}

	var singleCycle, multiCycle, emptyRanks, oneElemRanks int
	for _, key := range keys {
		req, err := key.normalize()
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		cp, err := compile(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: compile: %v", req, err)
		}
		var doc PlanDoc
		if err := json.Unmarshal(cp.body, &doc); err != nil {
			t.Fatalf("%+v: decode: %v", req, err)
		}
		checkPlanDoc(t, req, doc)
		if doc.SingleCycle {
			singleCycle++
		} else {
			multiCycle++
		}
		for _, rp := range doc.Ranks {
			switch rp.Count {
			case 0:
				emptyRanks++
			case 1:
				oneElemRanks++
			}
		}
	}
	if singleCycle == 0 || multiCycle == 0 || emptyRanks == 0 || oneElemRanks == 0 {
		t.Fatalf("sweep misses a case: %d single-cycle and %d multi-cycle keys, %d empty and %d one-element ranks",
			singleCycle, multiCycle, emptyRanks, oneElemRanks)
	}
}

// checkPlanDoc re-simulates every rank of doc from its start_local, gaps
// and count alone and checks the addresses against the paper's
// definition (core.Problem.Addresses), and total_count against the
// section count. req is the normalized key doc was compiled for.
func checkPlanDoc(t testing.TB, req PlanRequest, doc PlanDoc) {
	t.Helper()
	sec := section.Section{Lo: req.L, Hi: req.U, Stride: req.S}
	if doc.TotalCount != sec.Count() {
		t.Fatalf("%+v: total_count %d, section has %d", req, doc.TotalCount, sec.Count())
	}
	if int64(len(doc.Ranks)) != req.P {
		t.Fatalf("%+v: %d ranks", req, len(doc.Ranks))
	}
	layout := dist.MustNew(req.P, req.K)
	for m, rp := range doc.Ranks {
		pr := core.Problem{P: req.P, K: req.K, L: req.L, S: req.S, M: int64(m)}
		want, err := pr.Addresses(req.U)
		if err != nil {
			t.Fatalf("%+v rank %d: Addresses: %v", req, m, err)
		}
		if len(want) == 0 {
			if rp.Start != -1 || rp.StartLocal != -1 || rp.Count != 0 || rp.Kernel != "none" {
				t.Fatalf("%+v rank %d: empty rank served as %+v", req, m, rp)
			}
			continue
		}
		if rp.Rank != int64(m) || layout.Owner(rp.Start) != int64(m) || !sec.Contains(rp.Start) {
			t.Fatalf("%+v rank %d: start %d not an owned section element", req, m, rp.Start)
		}
		if rp.Count != int64(len(want)) {
			t.Fatalf("%+v rank %d: served count %d, oracle %d", req, m, rp.Count, len(want))
		}
		got := make([]int64, 0, len(want))
		addr := rp.StartLocal
		for i := int64(0); i < rp.Count; i++ {
			got = append(got, addr)
			if len(rp.Gaps) > 0 {
				addr += rp.Gaps[i%int64(len(rp.Gaps))]
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v rank %d: served plan walks %v, oracle %v", req, m, got, want)
		}
		if layout.Local(rp.Start) != rp.StartLocal {
			t.Fatalf("%+v rank %d: start %d is local %d, served start_local %d",
				req, m, rp.Start, layout.Local(rp.Start), rp.StartLocal)
		}
	}
}
