package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gtpin/internal/device"
	"gtpin/internal/fleet"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// TestMain diverts re-executions of this test binary into the fleet
// worker loop, as Main does for a command.
func TestMain(m *testing.M) {
	fleet.MaybeWorker()
	os.Exit(m.Run())
}

// sweep runs a tiny three-app sweep through a session parsed from args,
// the way a command's Main would, and returns each unit's artifact
// digest and how many units were adopted from the journal. save also
// persists recordings, and fails the sweep if a unit's recording blob
// is missing from the state dir afterwards.
func sweep(t *testing.T, save bool, args ...string) (digests []string, resumed int) {
	t.Helper()
	c := Config{Name: "test", Scale: "tiny", State: true, Workers: true, Fleet: true, Dialect: true}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var specs []*workloads.Spec
	for _, name := range []string{"cb-throughput-juliaset", "cb-gaussian-buffer", "sandra-proc-gpu"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	err := c.run(f, func(h *Session) error {
		outs, err := h.Sweep(h.Units(specs, device.IvyBridgeHD4000()), save, nil)
		if err != nil {
			return err
		}
		for _, o := range outs {
			if o.Err != nil {
				return fmt.Errorf("unit %s: %w", o.Unit.Key(), o.Err)
			}
			data, err := o.Artifact.Encode()
			if err != nil {
				return err
			}
			digests = append(digests, runstate.Digest(data))
			if o.Resumed {
				resumed++
			}
			if save {
				if _, err := os.Stat(h.State.UnitFile(o.Unit.Key(), ".rec")); !o.Artifact.HasRecording || err != nil {
					return fmt.Errorf("unit %s: recording not saved (has_recording %v): %v", o.Unit.Key(), o.Artifact.HasRecording, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return digests, resumed
}

// TestFaultRateOutOfRange: a -fault-rate outside [0,1], NaN included,
// fails the session before any work runs.
func TestFaultRateOutOfRange(t *testing.T) {
	c := Config{Name: "test", Scale: "tiny", Faults: true}
	for _, rate := range []string{"NaN", "-0.1", "1.5"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := c.register(fs)
		if err := fs.Parse([]string{"-fault-rate", rate}); err != nil {
			t.Fatal(err)
		}
		err := c.run(f, func(*Session) error {
			t.Errorf("-fault-rate %s: session started", rate)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("-fault-rate %s: err = %v, want outside [0,1]", rate, err)
		}
	}
}

// TestDialectTravelsWithTheUnit is the byte-identity matrix over
// topology × ISA configuration × history: every topology and every
// resume yields the same artifacts for the same configuration, a resume
// never adopts artifacts journaled under another dialect, a resume in
// the other topology adopts every unit and recording of the same
// configuration, GENX differs from native, and GENX translated back to
// GEN equals native.
func TestDialectTravelsWithTheUnit(t *testing.T) {
	topologies := [][]string{{"-workers", "1"}, {"-workers", "4"}, {"-fleet", "2"}}
	dialects := []struct {
		name string
		args []string
	}{
		{"native", nil},
		{"genx", []string{"-dialect", "genx"}},
		{"genx-gen", []string{"-dialect", "genx", "-translate", "gen"}},
	}
	want := map[string][]string{}
	for i, d := range dialects {
		other := dialects[(i+1)%len(dialects)]
		for _, topo := range topologies {
			for _, resume := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/resume=%v", d.name, strings.Join(topo, ""), resume)
				dir := t.TempDir()
				args := append([]string{"-state-dir", dir}, topo...)
				if resume {
					sweep(t, false, append([]string{"-state-dir", dir, "-workers", "4"}, other.args...)...)
					args = append(args, "-resume")
				}
				got, resumed := sweep(t, false, append(args, d.args...)...)
				if resumed != 0 {
					t.Errorf("%s: %d units adopted from a journal written under %s", name, resumed, other.name)
				}
				if prev, ok := want[d.name]; !ok {
					want[d.name] = got
				} else if strings.Join(got, ",") != strings.Join(prev, ",") {
					t.Errorf("%s: artifacts differ from the other runs of %s", name, d.name)
				}
			}
		}
		for _, legs := range [][2][]string{{{"-fleet", "2"}, {"-workers", "4"}}, {{"-workers", "4"}, {"-fleet", "2"}}} {
			name := fmt.Sprintf("%s/%s>%s/save", d.name, strings.Join(legs[0], ""), strings.Join(legs[1], ""))
			dir := t.TempDir()
			first, _ := sweep(t, true, append(append([]string{"-state-dir", dir}, legs[0]...), d.args...)...)
			got, resumed := sweep(t, true, append(append([]string{"-state-dir", dir, "-resume"}, legs[1]...), d.args...)...)
			if resumed != len(got) {
				t.Errorf("%s: %d of %d units adopted", name, resumed, len(got))
			}
			if strings.Join(got, ",") != strings.Join(first, ",") {
				t.Errorf("%s: resumed artifacts differ from the journaled run", name)
			}
		}
	}
	native, genx, back := strings.Join(want["native"], ","), strings.Join(want["genx"], ","), strings.Join(want["genx-gen"], ",")
	if genx == native {
		t.Error("genx artifacts equal native: the dialect never reached the pipeline")
	}
	if back != native {
		t.Error("genx translated back to gen differs from native")
	}
}
