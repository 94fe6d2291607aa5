package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzPlanHandler drives Server.Handler with an arbitrary POST body and
// an arbitrary GET query string. Every 200 must decode to the plan of
// the key the handler parsed, and when the section has at most 2¹⁶
// elements every rank must re-simulate to the oracle's addresses. Every
// other answer must be a 4xx carrying a JSON error: bad input never
// earns a 5xx.
func FuzzPlanHandler(f *testing.F) {
	for _, seed := range []struct{ body, query string }{
		{`{"p":4,"k":8,"l":4,"u":319,"s":9}`, "p=4&k=8&l=4&u=319&s=9"},
		// Strides whose p·k·s overflows int64.
		{`{"p":4,"k":8,"l":0,"u":100,"s":9223372036854775807}`, "p=4&k=8&l=0&u=100&s=9223372036854775807"},
		{`{"p":1024,"k":4096,"l":0,"u":100,"s":2199023255553}`, "p=1024&k=4096&l=0&u=100&s=2199023255553"},
		// u near MaxInt64, without and with an explicit extent.
		{`{"p":4,"k":8,"u":9223372036854775807,"s":3}`, "p=4&k=8&u=9223372036854775807&s=3"},
		{`{"p":4,"k":8,"u":9223372036854775806,"s":3,"n":9223372036854775807}`, "p=4&k=8&u=9223372036854775806&s=3&n=9223372036854775807"},
		// p·k at the 2²² cap.
		{`{"p":1024,"k":4096,"l":7,"u":100000,"s":3}`, "p=1024&k=4096&l=7&u=100000&s=3"},
		// An empty section.
		{`{"p":4,"k":8,"l":50,"u":10,"s":3}`, "p=4&k=8&l=50&u=10&s=3"},
		// Duplicate and unknown fields.
		{`{"p":4,"p":5,"k":8,"u":99,"s":3}`, "p=4&p=5&k=8&u=99&s=3"},
		{`{"p":4,"k":8,"u":99,"s":3,"stride":7}`, "p=4&k=8&u=99&s=3&stride=7"},
		// Numbers beyond int64.
		{`{"p":4,"k":8,"u":99,"s":9223372036854775808}`, "p=4&k=8&u=99&s=9223372036854775808"},
		{`{"p":4,"k":8,"u":1e30,"s":3}`, "p=4&k=8&u=-9223372036854775809&s=3"},
		// Data after the JSON value.
		{`{"p":4,"k":8,"l":4,"u":319,"s":9} trailing`, "p=4&k=8&l=4&u=319&s=9"},
		{`{"p":4,"k":8,"l":4,"u":319,"s":9}{"p":1}`, "p=4&k=8&l=4&u=319&s=9"},
	} {
		f.Add(seed.body, seed.query)
	}
	srv, err := New(Config{CacheCapacity: 8})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body, query string) {
		post := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
		checkPlanResponse(t, h, post)
		get, err := http.NewRequest(http.MethodGet, "/v1/plan?"+query, nil)
		if err != nil {
			return // not a request target the handler could ever see
		}
		checkPlanResponse(t, h, get)
	})
}

// checkPlanResponse serves r and checks the answer as FuzzPlanHandler
// describes.
func checkPlanResponse(t *testing.T, h http.Handler, r *http.Request) {
	t.Helper()
	// Parse the key the way the handler does, before it drains the body.
	var key PlanRequest
	var parseErr error
	if r.Method == http.MethodGet {
		key, parseErr = planRequestFromQuery(r)
	} else {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		// One JSON value, nothing but whitespace after it.
		parseErr = json.Unmarshal(body[:min(len(body), maxBodyBytes)], &key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		var doc map[string]string
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s %s: status %d: %s", r.Method, r.URL, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc["error"] == "" {
			t.Fatalf("%s %s: status %d without a JSON error: %s", r.Method, r.URL, rec.Code, rec.Body)
		}
		return
	}
	if parseErr != nil {
		t.Fatalf("%s %s: 200 for a key that does not parse: %v", r.Method, r.URL, parseErr)
	}
	req, err := key.normalize()
	if err != nil {
		t.Fatalf("%s %s: 200 for an invalid key %+v: %v", r.Method, r.URL, key, err)
	}
	var doc PlanDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s %s: undecodable plan: %v", r.Method, r.URL, err)
	}
	if doc.Schema != PlanDocSchema || doc.Key != req {
		t.Fatalf("%s %s: plan for %+v (%q), want %+v", r.Method, r.URL, doc.Key, doc.Schema, req)
	}
	if (req.U-req.L)/req.S < 1<<16 {
		checkPlanDoc(t, req, doc)
	}
}
