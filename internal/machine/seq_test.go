package machine

import (
	"testing"

	"repro/internal/telemetry"
)

// Sequence numbers are per-(sender, receiver, tag) FIFO positions:
// 1, 2, 3… in send order, independent across tags, and persistent
// across Run calls.
func TestSendSeqNumbers(t *testing.T) {
	m := MustNew(2)
	seqs := map[string][]int64{}
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				p.Send(1, "a", []float64{float64(i)})
			}
			p.Send(1, "b", nil)
		} else {
			for i := 0; i < 3; i++ {
				seqs["a"] = append(seqs["a"], p.Recv(0, "a").Seq)
			}
			seqs["b"] = append(seqs["b"], p.Recv(0, "b").Seq)
		}
	})
	// Second run: the "a" channel continues from 3.
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "a", nil)
		} else {
			seqs["a"] = append(seqs["a"], p.Recv(0, "a").Seq)
		}
	})
	want := map[string][]int64{"a": {1, 2, 3, 4}, "b": {1}}
	for tag, ws := range want {
		got := seqs[tag]
		if len(got) != len(ws) {
			t.Fatalf("tag %q: got %v, want %v", tag, got, ws)
		}
		for i := range ws {
			if got[i] != ws[i] {
				t.Errorf("tag %q: seqs %v, want %v", tag, got, ws)
				break
			}
		}
	}
}

// With tracing active, every recv event pairs with exactly one send
// event via (src, dst, tag, seq) — the edge set the trace-analysis
// layer builds its happens-before graph from.
func TestTraceSeqPairing(t *testing.T) {
	const p = 4
	tr := telemetry.StartTracing(p, 1024)
	defer telemetry.StopTracing()
	m := MustNew(p)
	m.Run(func(proc *Proc) {
		next := (proc.Rank() + 1) % p
		prev := (proc.Rank() + p - 1) % p
		for i := 0; i < 5; i++ {
			proc.Send(next, "ring", []float64{1})
			proc.Recv(prev, "ring")
		}
		proc.Barrier()
		proc.AllReduce(float64(proc.Rank()), Sum)
	})
	events := tr.Events()
	var sends, recvs int
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindSend:
			sends++
			if e.Seq <= 0 {
				t.Fatalf("send event without seq: %+v", e)
			}
			if e.Dur < 0 {
				t.Fatalf("send event with negative duration: %+v", e)
			}
		case telemetry.KindRecv:
			recvs++
			if e.Seq <= 0 {
				t.Fatalf("recv event without seq: %+v", e)
			}
		}
	}
	if sends == 0 || sends != recvs {
		t.Fatalf("trace has %d sends, %d recvs", sends, recvs)
	}
	pairs := telemetry.MatchMessages(events)
	if len(pairs) != sends {
		t.Errorf("matched %d pairs, want %d (every message delivered)", len(pairs), sends)
	}
	seen := map[int]bool{}
	for _, pr := range pairs {
		if seen[pr.Send] || seen[pr.Recv] {
			t.Fatalf("event used in two pairs: %+v", pr)
		}
		seen[pr.Send], seen[pr.Recv] = true, true
	}
}
