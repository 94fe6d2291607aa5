package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// compiled returns the hpfd response body for key.
func compiled(t *testing.T, key serve.PlanRequest) []byte {
	t.Helper()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("key %+v: status %d: %s", key, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func TestCheckPlanAcceptsServedPlans(t *testing.T) {
	for _, key := range []serve.PlanRequest{
		{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, // the paper's example
		planKey(planClass{P: 8, K: 64}, 5, 27),
		planKey(planClass{P: 16, K: 128}, 0, 1002),
	} {
		if err := checkPlan(key, compiled(t, key)); err != nil {
			t.Errorf("key %+v: %v", key, err)
		}
	}
}

// corrupt decodes a plan, lets f damage it, and re-encodes it.
func corrupt(t *testing.T, body []byte, f func(*serve.PlanDoc)) []byte {
	t.Helper()
	var doc serve.PlanDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	f(&doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckPlanRejectsCorruption(t *testing.T) {
	key := serve.PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}
	body := compiled(t, key)
	for name, f := range map[string]func(*serve.PlanDoc){
		"gap":         func(d *serve.PlanDoc) { d.Ranks[1].Gaps[2]++ },
		"swapped gap": func(d *serve.PlanDoc) { g := d.Ranks[1].Gaps; g[0], g[1] = g[1], g[0] },
		"start":       func(d *serve.PlanDoc) { d.Ranks[2].StartLocal++ },
		"count":       func(d *serve.PlanDoc) { d.Ranks[3].Count-- },
		"total":       func(d *serve.PlanDoc) { d.TotalCount++ },
		"rank order":  func(d *serve.PlanDoc) { d.Ranks[0], d.Ranks[1] = d.Ranks[1], d.Ranks[0] },
		"key":         func(d *serve.PlanDoc) { d.Key.S = 7 },
	} {
		if err := checkPlan(key, corrupt(t, body, f)); err == nil {
			t.Errorf("%s: corrupted plan passed the oracle", name)
		}
	}
	if err := checkPlan(key, []byte("{")); err == nil {
		t.Error("truncated body passed the oracle")
	}
}
