package telemetry

import (
	"slices"
	"testing"
)

// Both recorders keep their records in rankRings. Check its edges through
// each element type: an empty ring, a ring filled to exactly its
// capacity, and a ring one record past it.
func TestRingBoundaries(t *testing.T) {
	const capacity = 64 // at or above both recorders' minimum capacity
	for _, n := range []int{0, capacity, capacity + 1} {
		tr := NewTracer(1, capacity)
		ar := NewAccessRecorder(1, capacity)
		for i := 0; i < n; i++ {
			tr.Record(Event{Kind: KindSpan, Name: "e", Rank: 0, Start: int64(i)})
			ar.Record(0, int64(i), AccessRead, 0)
		}
		var events, accesses []int64
		for _, e := range tr.Events() {
			events = append(events, e.Start)
		}
		for _, seq := range ar.Doc().Seqs {
			for _, a := range seq.Accesses {
				accesses = append(accesses, a.Addr)
			}
		}
		dropped := max(n-capacity, 0)
		var want []int64
		for i := dropped; i < n; i++ {
			want = append(want, int64(i))
		}
		for _, c := range []struct {
			name    string
			kept    []int64
			dropped int64
		}{
			{"event", events, tr.Dropped()},
			{"access", accesses, ar.Dropped()},
		} {
			if c.dropped != int64(dropped) || !slices.Equal(c.kept, want) {
				t.Errorf("%s ring after %d records: dropped %d, kept %v; want dropped %d, kept %v",
					c.name, n, c.dropped, c.kept, dropped, want)
			}
		}
	}
}
