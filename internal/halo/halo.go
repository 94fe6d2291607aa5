// Package halo implements overlap areas ("ghost cells") for cyclic(k)
// distributed arrays — the Fortran D shift-communication pattern
// (Hiranandani, Kennedy & Tseng, the paper's reference [10]) that lets
// width-w stencils run entirely on local data after one neighbor
// exchange per sweep.
//
// Under cyclic(k), each processor's local memory is a sequence of
// k-cell blocks, and a stencil of radius w needs the w array elements on
// either side of EVERY block (not just of the whole local segment, as in
// a block distribution). Exchange fills per-block left/right ghost
// buffers from the neighboring processors in one SPMD step.
package halo

import (
	"fmt"

	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// Halo holds the exchanged ghost cells of one array: for each processor
// and each of its local blocks (rows), the w cells left of the block and
// the w cells right of it, in increasing global-index order. Cells
// outside the array bounds (left of element 0, right of element n-1)
// hold Pad.
type Halo struct {
	W     int64
	Pad   float64
	rows  int64 // blocks per processor
	left  [][]float64
	right [][]float64
}

// Left returns the ghost value j cells left of processor m's block `row`
// start: j = 1 is the immediate neighbor, j = W the farthest.
func (h *Halo) Left(m, row, j int64) float64 {
	if j < 1 || j > h.W {
		panic(fmt.Sprintf("halo: left offset %d outside [1, %d]", j, h.W))
	}
	return h.left[m][row*h.W+(h.W-j)]
}

// Right returns the ghost value j cells right of processor m's block
// `row` end: j = 1 is the immediate neighbor.
func (h *Halo) Right(m, row, j int64) float64 {
	if j < 1 || j > h.W {
		panic(fmt.Sprintf("halo: right offset %d outside [1, %d]", j, h.W))
	}
	return h.right[m][row*h.W+(j-1)]
}

// Rows returns the number of blocks per processor.
func (h *Halo) Rows() int64 { return h.rows }

// Exchange performs the neighbor communication filling a width-w halo
// for the array. It requires w ≤ k (a stencil reaching past the adjacent
// block would need second-neighbor exchange) and n divisible by p·k
// (whole blocks only); out-of-array ghosts are filled with pad.
func Exchange(m *machine.Machine, a *hpf.Array, w int64, pad float64) (*Halo, error) {
	layout := a.Layout()
	p, k, pk := layout.P(), layout.K(), layout.RowLen()
	n := a.N()
	if w < 1 || w > k {
		return nil, fmt.Errorf("halo: width %d outside [1, k=%d]", w, k)
	}
	if n == 0 || n%pk != 0 {
		return nil, fmt.Errorf("halo: array length %d not a positive multiple of p*k=%d", n, pk)
	}
	if int64(m.NProcs()) < p {
		return nil, fmt.Errorf("halo: machine has %d procs, need %d", m.NProcs(), p)
	}
	rows := n / pk
	h := &Halo{
		W: w, Pad: pad, rows: rows,
		left:  make([][]float64, p),
		right: make([][]float64, p),
	}
	for q := int64(0); q < p; q++ {
		h.left[q] = make([]float64, rows*w)
		h.right[q] = make([]float64, rows*w)
	}

	const tagL, tagR = "halo.left", "halo.right"
	m.Run(func(proc *machine.Proc) {
		me := int64(proc.Rank())
		if me >= p {
			return
		}
		if tr := telemetry.ActiveTracer(); tr != nil {
			defer tr.EndSpan(int32(me), "halo.exchange", tr.Now())
		}
		mem := a.LocalMem(me)
		leftNbr := int((me - 1 + p) % p)
		rightNbr := int((me + 1) % p)

		// Send the last w cells of each block to the right neighbor (they
		// are its left halo) and the first w cells to the left neighbor.
		toRight := make([]float64, rows*w)
		toLeft := make([]float64, rows*w)
		for row := int64(0); row < rows; row++ {
			copy(toRight[row*w:], mem[row*k+k-w:row*k+k])
			copy(toLeft[row*w:], mem[row*k:row*k+w])
		}
		proc.Send(rightNbr, tagL, toRight)
		proc.Send(leftNbr, tagR, toLeft)

		fromLeft := proc.Recv(leftNbr, tagL).Data
		fromRight := proc.Recv(rightNbr, tagR).Data

		// The left neighbor of processor 0's block in row r is the END of
		// processor p-1's block in row r-1; the neighbor's payload is
		// indexed by ITS row. Same shift on the right edge for proc p-1.
		for row := int64(0); row < rows; row++ {
			// Left halo of (me, row).
			srcRow := row
			valid := true
			if me == 0 {
				srcRow = row - 1
				valid = srcRow >= 0
			}
			if valid {
				copy(h.left[me][row*w:(row+1)*w], fromLeft[srcRow*w:(srcRow+1)*w])
			} else {
				fill(h.left[me][row*w:(row+1)*w], pad)
			}
			// Right halo of (me, row).
			srcRow = row
			valid = true
			if me == p-1 {
				srcRow = row + 1
				valid = srcRow < rows
			}
			if valid {
				copy(h.right[me][row*w:(row+1)*w], fromRight[srcRow*w:(srcRow+1)*w])
			} else {
				fill(h.right[me][row*w:(row+1)*w], pad)
			}
		}
	})
	return h, nil
}

func fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}
