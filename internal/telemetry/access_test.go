package telemetry

import (
	"bytes"
	"slices"
	"testing"
)

func TestAccessRecorderRoundTripJSON(t *testing.T) {
	r := NewAccessRecorder(2, 64)
	s1 := r.BeginStep("hpf.fill_section:constgap")
	s2 := r.BeginStep("comm.pack")
	r.Record(0, 10, AccessWrite, s1)
	r.Record(0, 13, AccessWrite, s1)
	r.Record(1, 7, AccessRead, s2)
	r.Record(HostRank, 99, AccessRead, 0)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	doc, err := ReadAccessTrace(&buf)
	if err != nil {
		t.Fatalf("ReadAccessTrace: %v", err)
	}
	checkDoc(t, doc)
}

func checkDoc(t *testing.T, doc *AccessDoc) {
	t.Helper()
	if doc.Schema != AccessSchema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if doc.Ranks != 2 || doc.Sample != 1 || doc.Dropped != 0 {
		t.Fatalf("header = %d ranks, sample %d, dropped %d", doc.Ranks, doc.Sample, doc.Dropped)
	}
	wantSteps := []AccessStep{{1, "hpf.fill_section:constgap"}, {2, "comm.pack"}}
	if !slices.Equal(doc.Steps, wantSteps) {
		t.Fatalf("steps = %+v", doc.Steps)
	}
	byRank := map[int32][]AccessRec{}
	for _, seq := range doc.Seqs {
		byRank[seq.Rank] = seq.Accesses
	}
	r0 := byRank[0]
	if len(r0) != 2 || r0[0] != (AccessRec{Addr: 10, Step: 1, Write: true}) || r0[1] != (AccessRec{Addr: 13, Step: 1, Write: true}) {
		t.Fatalf("rank 0 = %+v", r0)
	}
	r1 := byRank[1]
	if len(r1) != 1 || r1[0] != (AccessRec{Addr: 7, Step: 2}) {
		t.Fatalf("rank 1 = %+v", r1)
	}
	host := byRank[HostRank]
	if len(host) != 1 || host[0] != (AccessRec{Addr: 99}) {
		t.Fatalf("host = %+v", host)
	}
}

func TestAccessRecorderOverwriteDropped(t *testing.T) {
	r := NewAccessRecorder(1, 64)
	for i := 0; i < 200; i++ {
		r.Record(0, int64(i), AccessRead, 0)
	}
	if d := r.Dropped(); d != 200-64 {
		t.Fatalf("Dropped = %d, want %d", d, 200-64)
	}
	doc := r.Doc()
	got := doc.Seqs[0].Accesses
	if len(got) != 64 || got[0].Addr != 200-64 || got[63].Addr != 199 {
		t.Fatalf("retained window = %d records [%d..%d]", len(got), got[0].Addr, got[len(got)-1].Addr)
	}
	if doc.Dropped != 200-64 {
		t.Fatalf("doc.Dropped = %d", doc.Dropped)
	}
}

func TestAccessRecorderGuard(t *testing.T) {
	if ActiveAccessRecorder() != nil {
		t.Fatal("recorder active at test start")
	}
	r := StartAccessRecording(2, 128)
	if ActiveAccessRecorder() != r {
		t.Fatal("ActiveAccessRecorder did not return the started recorder")
	}
	if got := StopAccessRecording(); got != r {
		t.Fatal("StopAccessRecording did not return the recorder")
	}
	if ActiveAccessRecorder() != nil {
		t.Fatal("recorder still active after stop")
	}
}

// The disabled hot path — the check every instrumented op performs — is
// a single atomic load and must never allocate.
func TestAccessDisabledPathZeroAllocs(t *testing.T) {
	StopAccessRecording()
	allocs := testing.AllocsPerRun(1000, func() {
		if ar := ActiveAccessRecorder(); ar != nil {
			ar.Record(0, 1, AccessRead, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled access check allocates %v allocs/op", allocs)
	}
}

// Recording itself is allocation-free too: records land in
// preallocated buffers.
func TestAccessRecordZeroAllocs(t *testing.T) {
	r := NewAccessRecorder(1, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(0, 42, AccessWrite, 1)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v allocs/op", allocs)
	}
}
