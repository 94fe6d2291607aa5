package codegen

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The C emitter and the Go kernels must stay two views of the same
// address sequence. This file pins the emitted C for fixture problems as
// golden files, then interprets the emitted constants (tables, start
// offset) with the C fragments' control flow and checks that the element
// set and count agree with both the specialized kernels and the ground
// truth enumeration — so a kernel change that drifts from the emitted
// node code fails here, not in a downstream C build.

type parityCase struct {
	name string
	pr   core.Problem
	u    int64
}

func parityCases() []parityCase {
	return []parityCase{
		{"paper_p4k8s9", core.Problem{P: 4, K: 8, L: 4, S: 9, M: 1}, 320},
		{"fig1_p4k8s9m0", core.Problem{P: 4, K: 8, L: 0, S: 9, M: 0}, 319},
		{"table2_p32k4s7", core.Problem{P: 32, K: 4, L: 0, S: 7, M: 5}, 5000},
		{"dense_p4k16s5", core.Problem{P: 4, K: 16, L: 0, S: 5, M: 1}, 2000},
		{"sparse_p4k16s23", core.Problem{P: 4, K: 16, L: 5, S: 23, M: 2}, 2000},
	}
}

var (
	reTable = regexp.MustCompile(`static const long (deltaM|nextoffset)\[\d+\] = \{([^}]*)\};`)
	reStart = regexp.MustCompile(`long i = (\d+); /\* startoffset \*/`)
)

// parseEmitted extracts the compiled-in tables and start offset from an
// emitted C fragment.
func parseEmitted(t *testing.T, code string) (delta, next []int64, startOff int64) {
	t.Helper()
	startOff = -1
	for _, m := range reTable.FindAllStringSubmatch(code, -1) {
		var vals []int64
		for _, part := range strings.Split(m[2], ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			v, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				t.Fatalf("bad table literal %q: %v", part, err)
			}
			vals = append(vals, v)
		}
		switch m[1] {
		case "deltaM":
			delta = vals
		case "nextoffset":
			next = vals
		}
	}
	if m := reStart.FindStringSubmatch(code); m != nil {
		v, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatalf("bad startoffset %q: %v", m[1], err)
		}
		startOff = v
	}
	return delta, next, startOff
}

// simulateEmitted executes the control flow of the emitted fragment on
// its parsed constants, returning the local addresses written.
func simulateEmitted(shape EmitShape, start, last int64, delta, next []int64, startOff int64) []int64 {
	var out []int64
	if start < 0 {
		return out
	}
	base := start
	if shape == EmitD {
		i := startOff
		for base <= last {
			out = append(out, base)
			base += delta[i]
			i = next[i]
		}
		return out
	}
	// Shapes A/B/C all advance cyclically through deltaM.
	i := 0
	for base <= last {
		out = append(out, base)
		base += delta[i]
		i++
		if i == len(delta) {
			i = 0
		}
	}
	return out
}

func TestEmitCParityWithKernels(t *testing.T) {
	for _, tc := range parityCases() {
		f := newFixture(t, tc.pr, tc.u)
		sp := kernelSpec(f)
		for _, shape := range []EmitShape{EmitB, EmitD} {
			code, err := EmitCCode(shape, tc.pr, "1.0")
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, shape, err)
			}

			golden := filepath.Join("testdata", fmt.Sprintf("parity_%s_%s.c", tc.name, goldenShape(shape)))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(code), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantCode, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if string(wantCode) != code {
				t.Errorf("%s/%v: emitted C drifted from golden (re-run with -update if intentional)",
					tc.name, shape)
			}

			// Interpret the emitted constants and compare the element walk
			// against every kernel the spec admits and the ground truth.
			delta, next, startOff := parseEmitted(t, code)
			addrs := simulateEmitted(shape, f.start, f.last, delta, next, startOff)
			if len(addrs) != len(f.wantAddrs) {
				t.Fatalf("%s/%v: emitted C writes %d elements, ground truth %d",
					tc.name, shape, len(addrs), len(f.wantAddrs))
			}
			for i := range addrs {
				if addrs[i] != f.wantAddrs[i] {
					t.Fatalf("%s/%v: emitted C diverges at %d: %d != %d",
						tc.name, shape, i, addrs[i], f.wantAddrs[i])
				}
			}
			for _, kn := range Candidates(sp) {
				kn := kn
				if got := kn.Fill(f.mem, 1); got != int64(len(addrs)) {
					t.Errorf("%s/%v: kernel %v writes %d elements, emitted C %d",
						tc.name, shape, kn.Kind(), got, len(addrs))
				}
				clear(f.mem)
			}
		}
	}
}

// goldenShape names an EmitShape without the parenthesis characters so
// it can appear in a file name.
func goldenShape(s EmitShape) string {
	switch s {
	case EmitA:
		return "8a"
	case EmitB:
		return "8b"
	case EmitC_:
		return "8c"
	case EmitD:
		return "8d"
	}
	return "unknown"
}
