package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/serve"
)

// checkPlan is the output oracle of the plan workloads. It decodes an
// hpfd plan document, re-simulates every rank's local address stream
// from start_local, gaps and count, and compares it with
// core.Problem.Addresses: the ascending local addresses of l:u:s owned
// by that rank.
func checkPlan(key serve.PlanRequest, body []byte) error {
	var doc serve.PlanDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	if doc.Schema != serve.PlanDocSchema {
		return fmt.Errorf("schema %q, want %q", doc.Schema, serve.PlanDocSchema)
	}
	if doc.Key != key {
		return fmt.Errorf("document key %+v, want %+v", doc.Key, key)
	}
	if int64(len(doc.Ranks)) != key.P {
		return fmt.Errorf("%d ranks, want %d", len(doc.Ranks), key.P)
	}
	var total int64
	for m, rp := range doc.Ranks {
		if rp.Rank != int64(m) {
			return fmt.Errorf("rank entry %d names rank %d", m, rp.Rank)
		}
		pr := core.Problem{P: key.P, K: key.K, L: key.L, S: key.S, M: int64(m)}
		want, err := pr.Addresses(key.U)
		if err != nil {
			return fmt.Errorf("rank %d: oracle: %w", m, err)
		}
		if rp.Count != int64(len(want)) {
			return fmt.Errorf("rank %d: count %d, want %d", m, rp.Count, len(want))
		}
		addr := rp.StartLocal
		for t, w := range want {
			if addr != w {
				return fmt.Errorf("rank %d: element %d at local address %d, want %d", m, t, addr, w)
			}
			if len(rp.Gaps) > 0 {
				addr += rp.Gaps[t%len(rp.Gaps)]
			}
		}
		total += rp.Count
	}
	if want := (key.U-key.L)/key.S + 1; total != want || doc.TotalCount != want {
		return fmt.Errorf("total_count %d and rank counts summing to %d, want %d", doc.TotalCount, total, want)
	}
	return nil
}
