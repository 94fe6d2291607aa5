// Package traceanalysis turns the telemetry tracer's per-rank event
// rings into answers about a run: where the wall-clock time went, which
// rank is the straggler, and how the communication load is spread.
//
// The tracer records flat per-rank timelines; the machine stamps every
// message with a per-(src, dst, tag) FIFO sequence number, so each recv
// event names the exact send that produced it. From those edges — plus
// barrier-instance joins — this package stitches the timelines into a
// causal happens-before graph and computes:
//
//   - the critical path: the causal chain of operations bounding the
//     run's wall-clock time, with every blocking wait attributed to the
//     operation on the peer rank that ended it;
//   - a per-rank time breakdown (compute / send / recv-wait /
//     barrier-wait / idle) that sums exactly to each rank's lifetime;
//   - the communication matrix (messages and bytes per rank pair and
//     per tag);
//   - load-imbalance statistics over per-rank busy time.
//
// cmd/hpfprof is the CLI front end; it feeds this package from a
// trace/v1 or Chrome trace_event JSON file (see Load).
package traceanalysis

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Trace is the analyzer's input: a rank count, the overwrite count
// (nonzero means the rings truncated and analysis is skewed toward the
// end of the run), and the retained events.
type Trace struct {
	Ranks   int
	Dropped int64
	Events  []telemetry.Event
}

// RankBreakdown decomposes one rank's lifetime — the span from its
// first to its last trace event — into exclusive components:
// LifetimeNs = ComputeNs + SendNs + RecvWaitNs + BarrierWaitNs.
// Collective and span events overlap the message events they are built
// from, so they contribute counts here but their time is attributed
// through the underlying sends, recvs and barriers. IdleNs is the part
// of the machine-wide wall clock outside this rank's lifetime (late
// start or early finish).
type RankBreakdown struct {
	Rank          int   `json:"rank"`
	LifetimeNs    int64 `json:"lifetime_ns"`
	ComputeNs     int64 `json:"compute_ns"`
	SendNs        int64 `json:"send_ns"`
	RecvWaitNs    int64 `json:"recv_wait_ns"`
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
	IdleNs        int64 `json:"idle_ns"`
	Sends         int64 `json:"sends"`
	Recvs         int64 `json:"recvs"`
	Barriers      int64 `json:"barriers"`
	Collectives   int64 `json:"collectives"`
	BytesSent     int64 `json:"bytes_sent"`
	BytesRecv     int64 `json:"bytes_recv"`
}

// BusyNs is the rank's non-waiting time: compute plus send work.
func (b RankBreakdown) BusyNs() int64 { return b.ComputeNs + b.SendNs }

// PathStep is one segment of the critical path, in chronological
// order. Kind is a coarse label ("compute", "send", "recv-wait",
// "barrier-wait", "barrier", "recv", "collective", "span"); Name is
// the event name (message tag, span name) or a placeholder for
// untraced compute.
type PathStep struct {
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Rank    int    `json:"rank"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// OpContribution aggregates critical-path time (or host-span time) by
// operation.
type OpContribution struct {
	Kind    string `json:"kind,omitempty"`
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// CriticalPath is the causal chain bounding the run's wall-clock time:
// contiguous segments from the start of the earliest rank event to the
// end of the latest, each attributed to the operation (or the peer
// rank's operation) that the chain was waiting on. TotalNs is the sum
// of segment durations; it never exceeds the wall clock.
type CriticalPath struct {
	TotalNs int64            `json:"total_ns"`
	Steps   []PathStep       `json:"steps"`
	ByOp    []OpContribution `json:"by_op"`
}

// CommMatrix is the communication pattern: Messages[src][dst] and
// Bytes[src][dst] count what src sent to dst (from send events — under
// fault injection the receive side may see fewer). Tags aggregates the
// same totals per message tag, sorted by bytes descending.
type CommMatrix struct {
	P        int       `json:"p"`
	Messages [][]int64 `json:"messages"`
	Bytes    [][]int64 `json:"bytes"`
	Tags     []TagStat `json:"tags"`
}

// TagStat is one tag's share of the communication volume.
type TagStat struct {
	Tag      string `json:"tag"`
	Messages int64  `json:"messages"`
	Bytes    int64  `json:"bytes"`
}

// TotalMessages sums the matrix.
func (c CommMatrix) TotalMessages() int64 {
	var n int64
	for _, row := range c.Messages {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// TotalBytes sums the byte matrix.
func (c CommMatrix) TotalBytes() int64 {
	var n int64
	for _, row := range c.Bytes {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Imbalance summarizes the spread of per-rank busy time
// (compute + send). Percent is (max/mean − 1) · 100 — 0 % means
// perfectly balanced, 100 % means the busiest rank does twice the mean.
type Imbalance struct {
	MaxBusyNs  int64   `json:"max_busy_ns"`
	MeanBusyNs int64   `json:"mean_busy_ns"`
	MinBusyNs  int64   `json:"min_busy_ns"`
	MaxRank    int     `json:"max_rank"`
	Percent    float64 `json:"percent"`
}

// Analysis is the full report for one trace.
type Analysis struct {
	Ranks          int              `json:"ranks"`
	Events         int              `json:"events"`
	Dropped        int64            `json:"dropped"`
	WallStartNs    int64            `json:"wall_start_ns"`
	WallEndNs      int64            `json:"wall_end_ns"`
	WallClockNs    int64            `json:"wall_clock_ns"`
	Breakdown      []RankBreakdown  `json:"breakdown"`
	CriticalPath   CriticalPath     `json:"critical_path"`
	Comm           CommMatrix       `json:"comm"`
	Imbalance      Imbalance        `json:"imbalance"`
	HostSpans      []OpContribution `json:"host_spans,omitempty"`
	UnmatchedRecvs int64            `json:"unmatched_recvs"`
}

// Analyze stitches the trace into its happens-before graph and computes
// the full report. It fails if the trace contains no events on any
// processor rank.
func Analyze(tr *Trace) (*Analysis, error) {
	if tr.Ranks < 1 {
		return nil, fmt.Errorf("traceanalysis: trace has %d ranks", tr.Ranks)
	}
	g := buildGraph(tr)
	if g.wallEnd <= g.wallStart && g.rankEvents == 0 {
		return nil, fmt.Errorf("traceanalysis: trace has no events on any of the %d ranks", tr.Ranks)
	}
	a := &Analysis{
		Ranks:       tr.Ranks,
		Events:      len(tr.Events),
		Dropped:     tr.Dropped,
		WallStartNs: g.wallStart,
		WallEndNs:   g.wallEnd,
		WallClockNs: g.wallEnd - g.wallStart,
	}
	a.Breakdown = g.breakdown(a.WallClockNs)
	a.CriticalPath = g.criticalPath()
	a.Comm = g.commMatrix()
	a.Imbalance = imbalance(a.Breakdown)
	a.HostSpans = g.hostSpans()
	a.UnmatchedRecvs = g.unmatchedRecvs
	return a, nil
}

// imbalance computes the busy-time spread over ranks.
func imbalance(rows []RankBreakdown) Imbalance {
	im := Imbalance{MinBusyNs: -1}
	if len(rows) == 0 {
		im.MinBusyNs = 0
		return im
	}
	var sum int64
	for _, b := range rows {
		busy := b.BusyNs()
		sum += busy
		if busy > im.MaxBusyNs {
			im.MaxBusyNs = busy
			im.MaxRank = b.Rank
		}
		if im.MinBusyNs < 0 || busy < im.MinBusyNs {
			im.MinBusyNs = busy
		}
	}
	im.MeanBusyNs = sum / int64(len(rows))
	if im.MeanBusyNs > 0 {
		im.Percent = (float64(im.MaxBusyNs)/float64(im.MeanBusyNs) - 1) * 100
	}
	return im
}

// graph is the stitched happens-before structure shared by the
// analyses: per-rank chronological event lists over the flat event
// slice, the send that ended each recv's wait, and each barrier
// instance's last arrival.
type graph struct {
	tr     *Trace
	events []telemetry.Event
	byRank [][]int // global indices, per rank, sorted by Start

	sendOf         map[int]int         // recv index → matched send index
	barrierCause   map[int]barrierJoin // barrier index → last arrival of its instance
	hostIdx        []int
	rankEvents     int
	unmatchedRecvs int64
	wallStart      int64 // min Start over rank events
	wallEnd        int64 // max end over rank events
}

// barrierJoin names the arrival that released one barrier instance.
type barrierJoin struct {
	causeRank  int
	causeStart int64
}

func buildGraph(tr *Trace) *graph {
	g := &graph{
		tr:           tr,
		events:       tr.Events,
		byRank:       make([][]int, tr.Ranks),
		sendOf:       make(map[int]int),
		barrierCause: make(map[int]barrierJoin),
		wallStart:    int64(1)<<62 - 1,
	}
	for i, e := range g.events {
		if e.Rank >= 0 && int(e.Rank) < tr.Ranks {
			r := int(e.Rank)
			g.byRank[r] = append(g.byRank[r], i)
			g.rankEvents++
			if e.Start < g.wallStart {
				g.wallStart = e.Start
			}
			if end := e.Start + e.Dur; end > g.wallEnd {
				g.wallEnd = end
			}
		} else {
			g.hostIdx = append(g.hostIdx, i)
		}
	}
	if g.rankEvents == 0 {
		g.wallStart, g.wallEnd = 0, 0
		return g
	}
	for r := range g.byRank {
		idx := g.byRank[r]
		sort.SliceStable(idx, func(a, b int) bool { return g.events[idx[a]].Start < g.events[idx[b]].Start })
	}
	// Message edges: recv → the send that produced the message.
	for _, pr := range telemetry.MatchMessages(g.events) {
		g.sendOf[pr.Recv] = pr.Send
	}
	for i, e := range g.events {
		if e.Kind == telemetry.KindRecv && e.Rank >= 0 && int(e.Rank) < tr.Ranks {
			if _, ok := g.sendOf[i]; !ok {
				g.unmatchedRecvs++
			}
		}
	}
	g.joinBarriers()
	return g
}

// joinBarriers aligns each rank's barrier events into machine-wide
// instances and records the last arrival of each instance. Ranks are
// aligned from the most recent barrier backwards: ring overwrite drops
// the oldest events, so the tails of the per-rank barrier sequences
// correspond even when their lengths differ.
func (g *graph) joinBarriers() {
	perRank := make([][]int, g.tr.Ranks)
	minCount := -1
	for r, idxs := range g.byRank {
		for _, i := range idxs {
			if g.events[i].Kind == telemetry.KindBarrier {
				perRank[r] = append(perRank[r], i)
			}
		}
		if minCount < 0 || len(perRank[r]) < minCount {
			minCount = len(perRank[r])
		}
	}
	if minCount <= 0 {
		return
	}
	for inst := 1; inst <= minCount; inst++ {
		// The inst-th barrier from the end on every rank.
		join := barrierJoin{causeRank: -1}
		for r := range perRank {
			i := perRank[r][len(perRank[r])-inst]
			if e := g.events[i]; join.causeRank < 0 || e.Start > join.causeStart {
				join.causeRank, join.causeStart = r, e.Start
			}
		}
		for r := range perRank {
			g.barrierCause[perRank[r][len(perRank[r])-inst]] = join
		}
	}
}

// breakdown computes the per-rank decomposition.
func (g *graph) breakdown(wallClock int64) []RankBreakdown {
	rows := make([]RankBreakdown, g.tr.Ranks)
	for r := range rows {
		b := &rows[r]
		b.Rank = r
		idxs := g.byRank[r]
		if len(idxs) == 0 {
			b.IdleNs = wallClock
			continue
		}
		first, last := int64(1)<<62-1, int64(0)
		for _, i := range idxs {
			e := g.events[i]
			if e.Start < first {
				first = e.Start
			}
			if end := e.Start + e.Dur; end > last {
				last = end
			}
			switch e.Kind {
			case telemetry.KindSend:
				b.Sends++
				b.SendNs += e.Dur
				b.BytesSent += e.Bytes
			case telemetry.KindRecv:
				b.Recvs++
				b.RecvWaitNs += e.Dur
				b.BytesRecv += e.Bytes
			case telemetry.KindBarrier:
				b.Barriers++
				b.BarrierWaitNs += e.Dur
			case telemetry.KindReduce:
				b.Collectives++
			}
		}
		b.LifetimeNs = last - first
		b.ComputeNs = b.LifetimeNs - b.SendNs - b.RecvWaitNs - b.BarrierWaitNs
		if b.ComputeNs < 0 {
			// Overlapping waits can only come from a malformed trace; keep
			// the decomposition additive by absorbing the excess.
			b.RecvWaitNs += b.ComputeNs
			b.ComputeNs = 0
			if b.RecvWaitNs < 0 {
				b.BarrierWaitNs += b.RecvWaitNs
				b.RecvWaitNs = 0
			}
		}
		b.IdleNs = wallClock - b.LifetimeNs
	}
	return rows
}

// commMatrix tallies the send events into the rank-pair and tag
// matrices.
func (g *graph) commMatrix() CommMatrix {
	p := g.tr.Ranks
	c := CommMatrix{P: p, Messages: make([][]int64, p), Bytes: make([][]int64, p)}
	for i := range c.Messages {
		c.Messages[i] = make([]int64, p)
		c.Bytes[i] = make([]int64, p)
	}
	tags := map[string]*TagStat{}
	for _, e := range g.events {
		if e.Kind != telemetry.KindSend {
			continue
		}
		src, dst := int(e.Rank), int(e.Peer)
		if src < 0 || src >= p || dst < 0 || dst >= p {
			continue
		}
		c.Messages[src][dst]++
		c.Bytes[src][dst] += e.Bytes
		ts := tags[e.Name]
		if ts == nil {
			ts = &TagStat{Tag: e.Name}
			tags[e.Name] = ts
		}
		ts.Messages++
		ts.Bytes += e.Bytes
	}
	for _, ts := range tags {
		c.Tags = append(c.Tags, *ts)
	}
	sort.Slice(c.Tags, func(a, b int) bool {
		if c.Tags[a].Bytes != c.Tags[b].Bytes {
			return c.Tags[a].Bytes > c.Tags[b].Bytes
		}
		if c.Tags[a].Messages != c.Tags[b].Messages {
			return c.Tags[a].Messages > c.Tags[b].Messages
		}
		return c.Tags[a].Tag < c.Tags[b].Tag
	})
	return c
}

// hostSpans aggregates the host timeline's spans by name, largest
// total first.
func (g *graph) hostSpans() []OpContribution {
	agg := map[string]*OpContribution{}
	for _, i := range g.hostIdx {
		e := g.events[i]
		if e.Kind != telemetry.KindSpan {
			continue
		}
		oc := agg[e.Name]
		if oc == nil {
			oc = &OpContribution{Kind: "span", Name: e.Name}
			agg[e.Name] = oc
		}
		oc.Count++
		oc.TotalNs += e.Dur
	}
	out := make([]OpContribution, 0, len(agg))
	for _, oc := range agg {
		out = append(out, *oc)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].TotalNs != out[b].TotalNs {
			return out[a].TotalNs > out[b].TotalNs
		}
		return out[a].Name < out[b].Name
	})
	return out
}
