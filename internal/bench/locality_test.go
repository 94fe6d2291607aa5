package bench

import (
	"reflect"
	"strings"
	"testing"
)

func TestLocalityBench(t *testing.T) {
	const (
		p      = 4
		elems  = 256
		sweeps = 2
	)
	results, err := LocalityBench(p, elems, sweeps, []int64{16, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fams := ShapeFamilies()
	if len(results) != len(fams) {
		t.Fatalf("got %d rows, want %d", len(results), len(fams))
	}
	for i, r := range results {
		if r.Family != fams[i].Name || r.S != fams[i].S || r.Elems != elems || r.Sweeps != sweeps {
			t.Fatalf("row %d header = %+v", i, r)
		}
		for _, prof := range []struct {
			layout string
			p      LocalityProfile
		}{{"cyclic", r.Cyclic}, {"block", r.Block}} {
			// Every rank records sweeps*elems fill writes.
			if want := int64(p * sweeps * elems); prof.p.Accesses != want {
				t.Errorf("%s %s: accesses = %d, want %d", r.Family, prof.layout, prof.p.Accesses, want)
			}
			if prof.p.Lines <= 0 || prof.p.Lines >= prof.p.Accesses {
				t.Errorf("%s %s: distinct lines = %d out of %d accesses", r.Family, prof.layout, prof.p.Lines, prof.p.Accesses)
			}
			// The second sweep retouches every line, so reuses exist and a
			// huge LRU catches all of them while a 16-line one misses some.
			if len(prof.p.MissRates) != 2 {
				t.Fatalf("%s %s: miss rates = %+v", r.Family, prof.layout, prof.p.MissRates)
			}
			if big := prof.p.MissRates[1]; big.Misses != prof.p.Lines {
				t.Errorf("%s %s: miss@2^20 = %d, want cold-only %d", r.Family, prof.layout, big.Misses, prof.p.Lines)
			}
			if prof.p.MissRates[0].Misses < prof.p.MissRates[1].Misses {
				t.Errorf("%s %s: smaller cache misses less: %+v", r.Family, prof.layout, prof.p.MissRates)
			}
			if prof.p.MaxDist <= 0 || prof.p.MeanDist <= 0 {
				t.Errorf("%s %s: no finite reuse distances: %+v", r.Family, prof.layout, prof.p)
			}
		}
	}
	// The block family's cyclic layout IS the block layout: identical rows.
	for _, r := range results {
		if r.Family == "block" && !reflect.DeepEqual(r.Cyclic, r.Block) {
			t.Errorf("block family: cyclic and block profiles differ: %+v vs %+v", r.Cyclic, r.Block)
		}
	}
	// Deterministic: the profile is a pure function of the layouts.
	again, err := LocalityBench(p, elems, sweeps, []int64{16, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, again) {
		t.Error("LocalityBench is not deterministic")
	}
}

func TestFormatLocality(t *testing.T) {
	results, err := LocalityBench(2, 64, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatLocality(results)
	for _, want := range []string{"Locality matrix", "cyclic1", "generic", "miss@512"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted matrix missing %q:\n%s", want, out)
		}
	}
}
