package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plancache"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// The plan workloads drive an in-process hpfd server (serve.Server)
// over loopback HTTP from planClients closed-loop clients: each client
// sends its next POST /v1/plan only after reading the previous reply.

const planClients = 2

// traceHi is the high half of the trace ID of every request the
// benchmark sends; the low half numbers the requests. hpfd adopts an
// inbound traceparent, so in a traced round each client timing joins
// the server's hpfd.request span of the same request.
const traceHi = 0x7065726662656e63

// harness is the loopback HTTP front of the plan workloads. The server
// answering requests can be replaced between rounds while the listener
// and the clients' connections stay up.
type harness struct {
	cur    atomic.Pointer[liveServer]
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	nextID atomic.Uint64
}

type liveServer struct {
	srv *serve.Server
	h   http.Handler
}

func startHarness() (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/plan",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: planClients,
			DisableCompression:  true,
		}},
	}
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.cur.Load().h.ServeHTTP(w, r)
	})}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// swap makes srv the server that answers requests and closes the one
// it replaces.
func (h *harness) swap(srv *serve.Server) {
	if old := h.cur.Swap(&liveServer{srv: srv, h: srv.Handler()}); old != nil {
		old.srv.Close()
	}
}

// close stops the listener, drops every connection and waits for the
// serving goroutine to return.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.hs.Close()
	<-h.served
	if cur := h.cur.Swap(nil); cur != nil {
		cur.srv.Close()
	}
}

// post sends one plan request and reads the whole reply into buf.
func (h *harness) post(body []byte, id uint64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", telemetry.FormatTraceparent(
		telemetry.SpanContext{TraceHi: traceHi, TraceLo: id, Span: id}))
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// reply is the client-side record of one request.
type reply struct {
	id      uint64
	latency time.Duration
	bytes   int
	ok      bool
}

// fire sends bodies[order[0]], bodies[order[1]], ... from planClients
// closed-loop clients and returns one reply per request.
func (h *harness) fire(bodies [][]byte, order []int) []reply {
	base := h.nextID.Add(uint64(len(order))) - uint64(len(order))
	var next atomic.Int64
	perClient := make([][]reply, planClients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]reply, 0, len(order)/planClients+1)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					break
				}
				id := base + uint64(i) + 1
				t0 := time.Now()
				status, err := h.post(bodies[order[i]], id, &buf)
				out = append(out, reply{id: id, latency: time.Since(t0), bytes: buf.Len(),
					ok: err == nil && status == http.StatusOK})
			}
			perClient[c] = out
		}(c)
	}
	wg.Wait()
	var all []reply
	for _, out := range perClient {
		all = append(all, out...)
	}
	return all
}

// get posts one request outside any timed round and returns the body
// of a 200 reply.
func (h *harness) get(body []byte) ([]byte, error) {
	var buf bytes.Buffer
	status, err := h.post(body, h.nextID.Add(1), &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// planRecord is what the plan workloads accumulate over the measured
// rounds: response sizes and cache counters from every round, and the
// span attribution of each request from the traced ones.
type planRecord struct {
	bodyBytes, requests  int64
	hits, misses         int64
	tableBuilds          int64
	request, client      []float64 // ms: hpfd.request span; client latency minus it
	unattributed         []float64 // ms: hpfd.request not covered by its child spans
	build, tables, selec []float64 // ms per compile
	encode               []float64
	ledger               ledger
}

// addRound folds one round's replies and, when traced, the tracer's
// events into the record. It returns the round's latencies in ms and
// its failed-request count.
func (pr *planRecord) addRound(replies []reply, tr *telemetry.Tracer) ([]float64, int64, error) {
	lat := make([]float64, len(replies))
	var failed int64
	for i, r := range replies {
		lat[i] = ms(r.latency.Nanoseconds())
		pr.bodyBytes += int64(r.bytes)
		if !r.ok {
			failed++
		}
	}
	pr.requests += int64(len(replies))
	if tr == nil {
		return lat, failed, nil
	}
	if d := tr.Dropped(); d > 0 {
		return nil, 0, fmt.Errorf("tracer dropped %d events; raise the ring capacity", d)
	}
	requests := map[uint64]telemetry.Event{}
	children := map[uint64][]telemetry.Event{}
	for _, e := range tr.Events() {
		if e.Kind != telemetry.KindSpan || e.TraceHi != traceHi {
			continue
		}
		if e.Name == "hpfd.request" {
			requests[e.TraceLo] = e
		} else {
			children[e.Parent] = append(children[e.Parent], e)
		}
	}
	for _, r := range replies {
		req, ok := requests[r.id]
		if !ok {
			return nil, 0, fmt.Errorf("request %d has no hpfd.request span", r.id)
		}
		var direct int64
		for _, c := range children[req.Span] {
			switch c.Name {
			case "hpfd.admission", "hpfd.wait":
				direct += c.Dur
			case "hpfd.build":
				direct += c.Dur
				pr.build = append(pr.build, ms(c.Dur))
				for _, g := range children[c.Span] {
					switch g.Name {
					case "hpfd.tables":
						pr.tables = append(pr.tables, ms(g.Dur))
					case "hpfd.select":
						pr.selec = append(pr.selec, ms(g.Dur))
					case "hpfd.encode":
						pr.encode = append(pr.encode, ms(g.Dur))
					}
				}
			}
		}
		lat := r.latency.Nanoseconds()
		pr.request = append(pr.request, ms(req.Dur))
		pr.client = append(pr.client, ms(lat-req.Dur))
		pr.unattributed = append(pr.unattributed, ms(req.Dur-direct))
		pr.ledger.add(lat-(req.Dur-direct), lat)
	}
	return lat, failed, nil
}

// layers writes the serve, plancache and core per-layer metrics.
// singleCycle is the share of requests whose key is single-cycle.
func (pr *planRecord) layers(m metrics, singleCycle float64) error {
	for name, xs := range map[string][]float64{
		"serve.request_ms_p50":         pr.request,
		"serve.client_overhead_ms_p50": pr.client,
		"serve.unattributed_ms_p50":    pr.unattributed,
		"serve.build_ms_p50":           pr.build,
		"serve.tables_ms_p50":          pr.tables,
		"serve.select_ms_p50":          pr.selec,
		"serve.encode_ms_p50":          pr.encode,
		"ledger.unattributed_ms_p50":   pr.unattributed,
	} {
		v, err := layerP50(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.set(name, v)
	}
	m.set("ledger.coverage_pct", pr.ledger.coveragePct())
	if pr.requests > 0 {
		m.set("serve.body_bytes_mean", float64(pr.bodyBytes)/float64(pr.requests))
		m.set("plancache.table_builds_per_request", float64(pr.tableBuilds)/float64(pr.requests))
	}
	if pr.hits+pr.misses > 0 {
		m.set("serve.hit_ratio", float64(pr.hits)/float64(pr.hits+pr.misses))
	}
	m.set("core.single_cycle_share", singleCycle)
	return nil
}

// singleCycleShare returns the share of order's requests whose key's
// AM tables are one shared k-cycle (core.TableSet.SingleCycle).
func singleCycleShare(keys []serve.PlanRequest, order []int) (float64, error) {
	single := make([]bool, len(keys))
	for i, k := range keys {
		ts, err := core.NewTableSet(k.P, k.K, k.L, k.S)
		if err != nil {
			return 0, err
		}
		single[i] = ts.SingleCycle()
	}
	var n int
	for _, i := range order {
		if single[i] {
			n++
		}
	}
	return float64(n) / float64(len(order)), nil
}

// traceCapacity is the per-ring event capacity of a traced round: a
// cold request records at most seven spans and a warm one two.
const traceCapacity = 1 << 14

// marshalKeys encodes every key as a request body.
func marshalKeys(keys []serve.PlanRequest) ([][]byte, error) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// planCold is the plan-cold workload: every round replays the same
// seeded keys against a fresh server with an empty AM-table cache, so
// every request compiles.
type planCold struct {
	h      *harness
	keys   []serve.PlanRequest
	bodies [][]byte
	order  []int
	check  []int // key indexes the oracle re-simulates
	rec    planRecord
}

// oracleSample is how many plan-cold responses the oracle re-simulates.
const oracleSample = 12

func newPlanCold(seed int64) (*planCold, error) {
	keys := coldKeys(seed)
	bodies, err := marshalKeys(keys)
	if err != nil {
		return nil, err
	}
	w := &planCold{keys: keys, bodies: bodies, order: make([]int, len(keys))}
	for i := range w.order {
		w.order[i] = i
	}
	// The oracle sample is the first heavy key plus seeded others.
	heavy := -1
	for i, k := range keys {
		if k.P == heavyClass.P && k.K == heavyClass.K {
			heavy = i
			break
		}
	}
	w.check = append(w.check, heavy)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(keys)) {
		if len(w.check) == oracleSample {
			break
		}
		if i != heavy {
			w.check = append(w.check, i)
		}
	}
	probes, err := marshalKeys(probeKeys(seed))
	if err != nil {
		return nil, err
	}
	plancache.ResetTables()
	if w.h, err = startHarness(); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{})
	if err != nil {
		w.h.close()
		return nil, err
	}
	w.h.swap(srv)
	for _, body := range probes {
		if _, err := w.h.get(body); err != nil {
			w.h.close()
			return nil, fmt.Errorf("probe %s: %w", body, err)
		}
	}
	return w, nil
}

// round swaps in a fresh server and empties the AM-table cache before
// the clock starts, then collects the previous round's plans so every
// round starts from the same heap.
func (w *planCold) round(traced bool) (roundResult, error) {
	plancache.ResetTables()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return roundResult{}, err
	}
	w.h.swap(srv)
	runtime.GC()
	if traced {
		telemetry.StartTracing(0, traceCapacity)
	}
	t0 := time.Now()
	replies := w.h.fire(w.bodies, w.order)
	busy := time.Since(t0)
	var tr *telemetry.Tracer
	if traced {
		tr = telemetry.StopTracing()
	}
	st := srv.Stats()
	if st.Hits != 0 || st.Misses != int64(len(w.keys)) {
		return roundResult{}, fmt.Errorf("plan-cold round: %d hits and %d compiles for %d cold keys",
			st.Hits, st.Misses, len(w.keys))
	}
	w.rec.misses += st.Misses
	w.rec.tableBuilds += plancache.TableStats().Misses
	lat, failed, err := w.rec.addRound(replies, tr)
	return roundResult{lat: lat, failed: failed, busy: busy}, err
}

// verify re-requests the sampled keys from the last round's server,
// whose cache returns the bodies that round served.
func (w *planCold) verify() (int64, error) { return verifyPlans(w.h, w.keys, w.bodies, w.check) }

func (w *planCold) layers(m metrics) error {
	share, err := singleCycleShare(w.keys, w.order)
	if err != nil {
		return err
	}
	if err := w.rec.layers(m, share); err != nil {
		return err
	}
	return checkLedger(m)
}

func (w *planCold) close() { w.h.close() }

// verifyPlans fetches the checked keys outside any timed round and runs
// the oracle over each reply. It returns how many failed.
func verifyPlans(h *harness, keys []serve.PlanRequest, bodies [][]byte, check []int) (int64, error) {
	var failed int64
	var errs []error
	for _, i := range check {
		body, err := h.get(bodies[i])
		if err == nil {
			err = checkPlan(keys[i], body)
		}
		if err != nil {
			failed++
			errs = append(errs, fmt.Errorf("key %+v: %w", keys[i], err))
		}
	}
	return failed, errors.Join(errs...)
}

// planWarm is the plan-warm workload: warmKeyCount keys compiled during
// set-up, then requested with zipf popularity, so every request is a
// cache hit.
type planWarm struct {
	h      *harness
	srv    *serve.Server
	keys   []serve.PlanRequest
	bodies [][]byte
	order  []int
	rec    planRecord
}

// warmRound is the number of requests in one plan-warm round.
const warmRound = 4096

func newPlanWarm(seed int64) (*planWarm, error) {
	keys := warmKeys(seed)
	bodies, err := marshalKeys(keys)
	if err != nil {
		return nil, err
	}
	w := &planWarm{keys: keys, bodies: bodies, order: warmSchedule(seed, len(keys), warmRound)}
	plancache.ResetTables()
	if w.h, err = startHarness(); err != nil {
		return nil, err
	}
	if w.srv, err = serve.New(serve.Config{}); err != nil {
		w.h.close()
		return nil, err
	}
	w.h.swap(w.srv)
	for i, body := range bodies {
		if _, err := w.h.get(body); err != nil {
			w.h.close()
			return nil, fmt.Errorf("compile warm key %+v: %w", keys[i], err)
		}
	}
	return w, nil
}

func (w *planWarm) round(traced bool) (roundResult, error) {
	before := w.srv.Stats()
	if traced {
		telemetry.StartTracing(0, traceCapacity)
	}
	t0 := time.Now()
	replies := w.h.fire(w.bodies, w.order)
	busy := time.Since(t0)
	var tr *telemetry.Tracer
	if traced {
		tr = telemetry.StopTracing()
	}
	st := w.srv.Stats()
	if misses := st.Misses - before.Misses; misses != 0 {
		return roundResult{}, fmt.Errorf("plan-warm round: %d compiles; every key should be cached", misses)
	}
	w.rec.hits += st.Hits - before.Hits
	lat, failed, err := w.rec.addRound(replies, tr)
	return roundResult{lat: lat, failed: failed, busy: busy}, err
}

// verify re-requests every key; the cache returns the bodies the timed
// rounds served.
func (w *planWarm) verify() (int64, error) {
	all := make([]int, len(w.keys))
	for i := range all {
		all[i] = i
	}
	return verifyPlans(w.h, w.keys, w.bodies, all)
}

// layers reports the ledger coverage without checking it: a cache hit
// is mostly request handling that no child span covers.
func (w *planWarm) layers(m metrics) error {
	share, err := singleCycleShare(w.keys, w.order)
	if err != nil {
		return err
	}
	return w.rec.layers(m, share)
}

func (w *planWarm) close() { w.h.close() }
