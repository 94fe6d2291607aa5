package machine

import "repro/internal/telemetry"

// This file implements collective operations on top of point-to-point
// messaging. All collectives must be called by every processor of the
// machine (SPMD), like their MPI counterparts. The implementations use a
// simple root-relative star; the machine is simulated, so topology-aware
// trees would only add complexity.

// ReduceOp combines two float64 values; it must be associative and
// commutative (sum, max, min, ...).
type ReduceOp func(a, b float64) float64

// Sum is the addition reduce operator.
func Sum(a, b float64) float64 { return a + b }

// Max is the maximum reduce operator.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// collectiveSpan marks the start of a collective on p's timeline when a
// tracer is active; endCollectiveSpan records it. Kept as a begin/end
// pair (not a defer closure) so the disabled path costs one atomic load.
func (p *Proc) collectiveSpan() (*telemetry.Tracer, int64) {
	tr := telemetry.ActiveTracer()
	if tr == nil {
		return nil, 0
	}
	return tr, tr.Now()
}

func (p *Proc) endCollectiveSpan(tr *telemetry.Tracer, name string, start int64) {
	if tr == nil {
		return
	}
	tr.Record(telemetry.Event{
		Kind: telemetry.KindReduce, Name: name, Rank: int32(p.rank),
		Peer: -1, Start: start, Dur: tr.Now() - start,
	})
}

// Reduce combines one value per processor with op and returns the result
// on root (other processors receive 0). Every processor must call it.
func (p *Proc) Reduce(value float64, op ReduceOp, root int) float64 {
	const tag = "__reduce"
	tr, t0 := p.collectiveSpan()
	var acc float64
	if p.rank != root {
		p.Send(root, tag, []float64{value})
	} else {
		acc = value
		for r := 0; r < p.m.nprocs; r++ {
			if r == root {
				continue
			}
			msg := p.Recv(r, tag)
			acc = op(acc, msg.Data[0])
		}
	}
	p.endCollectiveSpan(tr, "reduce", t0)
	return acc
}

// AllReduce is Reduce followed by a broadcast: every processor receives
// the combined value.
func (p *Proc) AllReduce(value float64, op ReduceOp) float64 {
	tr, t0 := p.collectiveSpan()
	acc := p.Reduce(value, op, 0)
	out := p.Bcast(acc, 0)
	p.endCollectiveSpan(tr, "allreduce", t0)
	return out
}

// Bcast distributes root's value to every processor and returns it.
func (p *Proc) Bcast(value float64, root int) float64 {
	const tag = "__bcast"
	tr, t0 := p.collectiveSpan()
	out := value
	if p.rank == root {
		for r := 0; r < p.m.nprocs; r++ {
			if r != root {
				p.Send(r, tag, []float64{value})
			}
		}
	} else {
		out = p.Recv(root, tag).Data[0]
	}
	p.endCollectiveSpan(tr, "bcast", t0)
	return out
}

// GatherSlices collects one slice per processor on root, indexed by rank.
// Non-root processors receive nil. Every processor must call it.
func (p *Proc) GatherSlices(local []float64, root int) [][]float64 {
	const tag = "__gather"
	tr, t0 := p.collectiveSpan()
	var out [][]float64
	if p.rank != root {
		p.Send(root, tag, local)
	} else {
		out = make([][]float64, p.m.nprocs)
		out[root] = local
		for r := 0; r < p.m.nprocs; r++ {
			if r == root {
				continue
			}
			out[r] = p.Recv(r, tag).Data
		}
	}
	p.endCollectiveSpan(tr, "gather", t0)
	return out
}
