package gtpin_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gtpin/internal/selection"
)

var update = flag.Bool("update", false, "rewrite testdata/selections.golden from the current selections")

const selectionsGolden = "testdata/selections.golden"

// TestSelectionsGolden pins every selection the fixture makes, 25
// tiny-scale profiles × 30 configurations, bit for bit: each line
// digests one evaluation's interval count, selections (interval,
// cluster, ratio) and accuracy figures by their float bits. A change to
// interval division, features or SimPoint that moves any selection
// fails here; one meant to move them regenerates the file with
// `go test -run TestSelectionsGolden -update .` and shows the change in
// its diff.
func TestSelectionsGolden(t *testing.T) {
	f := getFixture(t)
	var b strings.Builder
	for _, spec := range f.specs {
		for _, ev := range f.evals[spec.Name] {
			fmt.Fprintf(&b, "%s %s %s\n", spec.Name, ev.Config, evalDigest(ev))
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(selectionsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(selectionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(data), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d evaluations, %s has %d", len(gotLines)-1, selectionsGolden, len(wantLines)-1)
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("evaluation %d: %q, want %q", i, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d evaluations differ from %s", bad, len(gotLines)-1, selectionsGolden)
	}
}

// evalDigest hashes the outcome of one evaluation, floats by their bits.
func evalDigest(ev *selection.Evaluation) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) } // hash writes never fail
	put(uint64(ev.NumIntervals))
	put(uint64(len(ev.Selections)))
	for _, s := range ev.Selections {
		put(uint64(s.Interval))
		put(uint64(s.Cluster))
		put(math.Float64bits(s.Ratio))
	}
	put(math.Float64bits(ev.ErrorPct))
	put(math.Float64bits(ev.SelectedFrac))
	put(math.Float64bits(ev.Speedup))
	return hex.EncodeToString(h.Sum(nil)[:8])
}
