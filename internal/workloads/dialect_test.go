package workloads

import (
	"bytes"
	"context"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/isa"
)

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		name string
		want Scale
	}{
		{"full", ScaleFull},
		{"small", ScaleSmall},
		{"tiny", ScaleTiny},
	} {
		if got, err := ParseScale(c.name); err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
	_, err := ParseScale("huge")
	if err == nil || err.Error() != `unknown scale "huge" (want full, small, or tiny)` {
		t.Errorf("ParseScale(huge) error = %v", err)
	}
}

// TestUnitKeyISASignature pins the journal identity: native units keep
// the key journals have always used, and every other ISA configuration
// gets a key of its own, including on the descriptor a fleet worker
// rebuilds it from.
func TestUnitKeyISASignature(t *testing.T) {
	spec, err := ByName("cb-throughput-juliaset")
	if err != nil {
		t.Fatal(err)
	}
	gen, genx := isa.DialectGEN, isa.DialectGENX
	native := Unit{Spec: spec, Scale: ScaleTiny, Cfg: device.IvyBridgeHD4000(), TrialSeed: 1}
	for _, c := range []struct {
		dialect   isa.Dialect
		translate *isa.Dialect
		suffix    string
	}{
		{gen, nil, ""},
		{genx, nil, "|isa=genx"},
		{genx, &gen, "|isa=genx>gen"},
		{gen, &genx, "|isa=gen>genx"},
	} {
		u := native
		u.Dialect, u.Translate = c.dialect, c.translate
		want := "cb-throughput-juliaset|HD4000 (Ivy Bridge)@1150MHz|tiny|t1|clean" + c.suffix
		if got := u.Key(); got != want {
			t.Errorf("key %q, want %q", got, want)
		}
		d, err := u.Descriptor()
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Key(); got != want {
			t.Errorf("descriptor key %q, want %q", got, want)
		}
	}
}

// TestRecordingKeepsUnitISA: the recording holds the IR the unit's
// context built and the unit's translate target, so replays, timed
// replays and detsim run the unit's code without a transform of their
// own.
func TestRecordingKeepsUnitISA(t *testing.T) {
	gen := isa.DialectGEN
	u := poolUnits(t)[0]
	u.Dialect, u.Translate = isa.DialectGENX, &gen
	res, err := runPipeline(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(u)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"pipeline": res, "Record": {Recording: rec}} {
		if r.Recording.Translate == nil || *r.Recording.Translate != gen {
			t.Errorf("%s recording translate target %v, want gen", name, r.Recording.Translate)
		}
		for _, p := range r.Recording.Programs {
			for _, k := range p.Kernels {
				if k.Dialect != isa.DialectGENX {
					t.Fatalf("%s recording kernel %s is %s, want genx", name, k.Name, k.Dialect)
				}
			}
		}
	}
}

// TestPoolSharedCacheSeparatesDialects: units that differ only in
// dialect share one pool and one replay cache without sharing entries —
// each artifact equals its uncached run, and the two differ.
func TestPoolSharedCacheSeparatesDialects(t *testing.T) {
	native := poolUnits(t)[0]
	genx := native
	genx.Dialect = isa.DialectGENX
	units := []Unit{native, genx}
	rc := NewReplayCache()
	outs, err := RunPool(context.Background(), units, PoolOptions{Workers: 1, ReplayCache: rc})
	if err != nil {
		t.Fatal(err)
	}
	var arts [][]byte
	for i, u := range units {
		if outs[i].Err != nil {
			t.Fatalf("unit %s: %v", u.Key(), outs[i].Err)
		}
		res, err := runPipeline(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := encodeArtifact(t, outs[i].Artifact)
		if !bytes.Equal(got, encodeArtifact(t, NewArtifact(res))) {
			t.Errorf("unit %s: cached artifact differs from uncached run", u.Key())
		}
		arts = append(arts, got)
	}
	if bytes.Equal(arts[0], arts[1]) {
		t.Error("genx artifact equals native: the dialect never reached the pipeline")
	}
	if st := rc.Stats(); st.Misses != 2 || st.NativeMisses != 2 {
		t.Errorf("dialects shared cache entries: %+v", st)
	}
}
