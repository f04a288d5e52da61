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
// digest and how many units were adopted from the journal.
func sweep(t *testing.T, args ...string) (digests []string, resumed int) {
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
		outs, err := h.Sweep(h.Units(specs, device.IvyBridgeHD4000()), false, nil)
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
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return digests, resumed
}

// TestDialectTravelsWithTheUnit is the byte-identity matrix over
// topology × ISA configuration × history: every topology and every
// resume yields the same artifacts for the same configuration, a resume
// never adopts artifacts journaled under another dialect, GENX differs
// from native, and GENX translated back to GEN equals native.
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
					sweep(t, append([]string{"-state-dir", dir, "-workers", "4"}, other.args...)...)
					args = append(args, "-resume")
				}
				got, resumed := sweep(t, append(args, d.args...)...)
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
	}
	native, genx, back := strings.Join(want["native"], ","), strings.Join(want["genx"], ","), strings.Join(want["genx-gen"], ",")
	if genx == native {
		t.Error("genx artifacts equal native: the dialect never reached the pipeline")
	}
	if back != native {
		t.Error("genx translated back to gen differs from native")
	}
}
