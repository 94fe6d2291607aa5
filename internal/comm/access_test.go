package comm

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// TestExecuteRecordsPackUnpackAccesses traces a cross-distribution copy
// and checks the recorded pack reads and unpack writes against the
// layout oracle: every rank's reads are exactly the source local
// addresses it owns in the transfer, its writes exactly the destination
// local addresses, under "comm.pack"/"comm.unpack" step labels.
func TestExecuteRecordsPackUnpackAccesses(t *testing.T) {
	srcLayout := dist.MustNew(4, 8)
	dstLayout := dist.MustNew(4, 3)
	m := machine.MustNew(4)
	src := hpf.MustNewArray(srcLayout, 320)
	dst := hpf.MustNewArray(dstLayout, 320)
	dstSec := section.MustNew(4, 300, 9)
	srcSec := section.MustNew(0, int64(8*(dstSec.Count()-1)), 8)

	ar := telemetry.StartAccessRecording(4, 1<<16)
	defer telemetry.StopAccessRecording()
	if err := Copy(m, dst, dstSec, src, srcSec); err != nil {
		t.Fatal(err)
	}
	doc := ar.Doc()
	telemetry.StopAccessRecording()

	if len(doc.Steps) != 2 || doc.Steps[0].Label != "comm.pack" || doc.Steps[1].Label != "comm.unpack" {
		t.Fatalf("steps = %+v", doc.Steps)
	}
	packStep, unpackStep := doc.Steps[0].Step, doc.Steps[1].Step

	// Oracle: transfer position t pairs srcSec(t) (read on its owner)
	// with dstSec(t) (written on its owner).
	wantReads := map[int32]map[int64]int{}
	wantWrites := map[int32]map[int64]int{}
	n := dstSec.Count()
	for t0 := int64(0); t0 < n; t0++ {
		si, di := srcSec.Element(t0), dstSec.Element(t0)
		q, r := int32(srcLayout.Owner(si)), int32(dstLayout.Owner(di))
		if wantReads[q] == nil {
			wantReads[q] = map[int64]int{}
		}
		if wantWrites[r] == nil {
			wantWrites[r] = map[int64]int{}
		}
		wantReads[q][srcLayout.Local(si)]++
		wantWrites[r][dstLayout.Local(di)]++
	}

	for _, seq := range doc.Seqs {
		gotReads := map[int64]int{}
		gotWrites := map[int64]int{}
		for _, rec := range seq.Accesses {
			if rec.Write {
				if rec.Step != unpackStep {
					t.Fatalf("rank %d: write with step %d, want %d", seq.Rank, rec.Step, unpackStep)
				}
				gotWrites[rec.Addr]++
			} else {
				if rec.Step != packStep {
					t.Fatalf("rank %d: read with step %d, want %d", seq.Rank, rec.Step, packStep)
				}
				gotReads[rec.Addr]++
			}
		}
		checkAddrSet(t, "pack reads", seq.Rank, gotReads, wantReads[seq.Rank])
		checkAddrSet(t, "unpack writes", seq.Rank, gotWrites, wantWrites[seq.Rank])
	}
}

func checkAddrSet(t *testing.T, what string, rank int32, got, want map[int64]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rank %d %s: %d distinct addresses, want %d", rank, what, len(got), len(want))
	}
	for a, n := range want {
		if got[a] != n {
			t.Fatalf("rank %d %s: address %d recorded %d times, want %d", rank, what, a, got[a], n)
		}
	}
}

// TestExecuteWithRecordsCombineAccesses checks the accumulate path
// records the destination read-modify-write pairs.
func TestExecuteWithRecordsCombineAccesses(t *testing.T) {
	layout := dist.MustNew(3, 5)
	m := machine.MustNew(3)
	src := hpf.MustNewArray(layout, 100)
	dst := hpf.MustNewArray(layout, 100)
	sec := section.MustNew(0, 99, 1)

	ar := telemetry.StartAccessRecording(3, 1<<16)
	defer telemetry.StopAccessRecording()
	if err := Accumulate(m, dst, sec, src, sec, Add); err != nil {
		t.Fatal(err)
	}
	doc := ar.Doc()
	telemetry.StopAccessRecording()

	if len(doc.Steps) != 2 || doc.Steps[0].Label != "comm.pack" || doc.Steps[1].Label != "comm.combine" {
		t.Fatalf("steps = %+v", doc.Steps)
	}
	var reads, writes int64
	for _, seq := range doc.Seqs {
		for _, rec := range seq.Accesses {
			if rec.Write {
				writes++
			} else {
				reads++
			}
		}
	}
	// 100 pack reads + 100 combine reads, 100 combine writes.
	if reads != 200 || writes != 100 {
		t.Fatalf("recorded %d reads / %d writes, want 200 / 100", reads, writes)
	}
}

// TestTranspose2DRecordsPackUnpackAccesses: a 2-D statement records the
// same pack/unpack steps as a 1-D one — every source element read once
// on its owner, every destination element written once on its owner, at
// its row-major local address.
func TestTranspose2DRecordsPackUnpackAccesses(t *testing.T) {
	dst, src, dstRect, srcRect := transposeFixture()
	m := machine.MustNew(4)

	ar := telemetry.StartAccessRecording(4, 1<<16)
	defer telemetry.StopAccessRecording()
	if err := Transpose2D(m, dst, dstRect, src, srcRect); err != nil {
		t.Fatal(err)
	}
	doc := ar.Doc()
	telemetry.StopAccessRecording()

	if len(doc.Steps) != 2 || doc.Steps[0].Label != "comm.pack" || doc.Steps[1].Label != "comm.unpack" {
		t.Fatalf("steps = %+v", doc.Steps)
	}
	packStep, unpackStep := doc.Steps[0].Step, doc.Steps[1].Step

	// Oracle: element (i, j) of a lives on rank FlatRank(Owner(i, j)) at
	// local address Local(i)·cols + Local(j).
	type elem struct {
		rank int32
		addr int64
	}
	locate := func(a *hpf.Array2D, i, j int64) elem {
		g := a.Grid()
		r := g.FlatRank(g.Owner([]int64{i, j}))
		_, _, cols := a.LocalMem(r)
		return elem{int32(r), g.Dim(0).Local(i)*cols + g.Dim(1).Local(j)}
	}
	wantReads := map[int32]map[int64]int{}
	wantWrites := map[int32]map[int64]int{}
	add := func(m map[int32]map[int64]int, e elem) {
		if m[e.rank] == nil {
			m[e.rank] = map[int64]int{}
		}
		m[e.rank][e.addr]++
	}
	for t0 := int64(0); t0 < dstRect[0].Count(); t0++ {
		for t1 := int64(0); t1 < dstRect[1].Count(); t1++ {
			add(wantReads, locate(src, srcRect[0].Element(t1), srcRect[1].Element(t0)))
			add(wantWrites, locate(dst, dstRect[0].Element(t0), dstRect[1].Element(t1)))
		}
	}

	var total int64
	for _, seq := range doc.Seqs {
		total += int64(len(seq.Accesses))
		gotReads := map[int64]int{}
		gotWrites := map[int64]int{}
		for _, rec := range seq.Accesses {
			switch {
			case rec.Write && rec.Step == unpackStep:
				gotWrites[rec.Addr]++
			case !rec.Write && rec.Step == packStep:
				gotReads[rec.Addr]++
			default:
				t.Fatalf("rank %d: access %+v outside the pack reads and unpack writes", seq.Rank, rec)
			}
		}
		checkAddrSet(t, "pack reads", seq.Rank, gotReads, wantReads[seq.Rank])
		checkAddrSet(t, "unpack writes", seq.Rank, gotWrites, wantWrites[seq.Rank])
	}
	if want := 2 * dstRect[0].Count() * dstRect[1].Count(); total != want {
		t.Fatalf("recorded %d accesses, want %d (one read and one write per element)", total, want)
	}
}
