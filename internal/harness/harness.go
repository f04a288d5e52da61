// Package harness is the command-line wiring the profiling commands
// share: the main→run error unwind, the signal context and -timeout,
// scale parsing, the chaos and ISA flag groups, the checkpoint state
// dir, the observability session, and the choice between the
// in-process pool and a fleet of worker processes. A command names the
// flag groups it has; Main parses them, sets the run up, calls the
// command's body, and tears everything down before reporting an error.
package harness

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/fleet"
	"gtpin/internal/isa"
	"gtpin/internal/obs/obsflag"
	"gtpin/internal/runstate"
	"gtpin/internal/workloads"
)

// Config names a command and the optional flag groups it registers.
// -scale, -timeout and the observability flags (-trace, -metrics,
// -debug-addr) are always registered.
type Config struct {
	Name    string // error prefix and journal-recovery label
	Scale   string // default -scale
	Faults  bool   // -fault-rate, -fault-seed, -watchdog
	State   bool   // -state-dir, -resume
	Workers bool   // -workers
	Fleet   bool   // -fleet
	Dialect bool   // -dialect, -translate
}

// flags holds every harness flag; groups a command did not register
// keep their zero values.
type flags struct {
	scale, stateDir, dialect, translate string
	timeout                             time.Duration
	faultRate                           float64
	faultSeed                           int64
	watchdog                            uint64
	resume                              bool
	workers, fleet                      int
	obs                                 *obsflag.Flags
}

func (c Config) register(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.scale, "scale", c.Scale, "workload scale: full, small, or tiny")
	fs.DurationVar(&f.timeout, "timeout", 0, "overall run deadline (0 = none); work still running at the deadline is abandoned and classified as a unit-timeout fault")
	if c.Faults {
		fs.Float64Var(&f.faultRate, "fault-rate", 0, "chaos mode: per-site fault-injection rate in [0,1]")
		fs.Int64Var(&f.faultSeed, "fault-seed", 1, "chaos mode: fault-injection seed")
		fs.Uint64Var(&f.watchdog, "watchdog", 0, "per-enqueue kernel watchdog budget in instructions (0 = off)")
	}
	if c.State {
		fs.StringVar(&f.stateDir, "state-dir", "", "checkpoint directory: journal each unit and persist its artifacts atomically")
		fs.BoolVar(&f.resume, "resume", false, "continue a journaled run from -state-dir: skip completed units, re-run in-flight ones")
	}
	if c.Workers {
		fs.IntVar(&f.workers, "workers", 0, "concurrent shards (0 = GOMAXPROCS, 1 = serial); reports are identical at any setting")
	}
	if c.Fleet {
		fs.IntVar(&f.fleet, "fleet", 0, "distribute the sweep across N worker processes with lease-based fault tolerance (0 = in-process pool); reports are identical either way")
	}
	if c.Dialect {
		fs.StringVar(&f.dialect, "dialect", "", "retarget every program's IR to this ISA dialect before compilation (gen or genx)")
		fs.StringVar(&f.translate, "translate", "", "binary-translate every compiled kernel to this ISA dialect before instrumentation (gen or genx)")
	}
	f.obs = obsflag.Register(fs)
	return f
}

// Main runs a command. A process a fleet coordinator spawned becomes a
// worker instead. Otherwise Main parses the command line, sets the
// session up, calls run, and tears the session down — journal closed,
// observability artifacts written — before printing any error and
// exiting 1, so no deferred cleanup is skipped.
func Main(c Config, run func(*Session) error) {
	fleet.MaybeWorker()
	f := c.register(flag.CommandLine)
	flag.Parse()
	if err := c.run(f, run); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
		os.Exit(1)
	}
}

func (c Config) run(f *flags, body func(*Session) error) (err error) {
	s := &Session{name: c.Name, f: f}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	if err := s.start(); err != nil {
		return err
	}
	return body(s)
}

// Session is one command run: its parsed harness flags and what the
// harness set up for them.
type Session struct {
	// Ctx ends on SIGINT or SIGTERM and at the -timeout deadline.
	Ctx    context.Context
	Scale  workloads.Scale
	Faults *workloads.FaultOptions // nil unless -fault-rate or -watchdog is set
	State  *runstate.Dir           // nil without -state-dir
	// StateDir and Workers are the -state-dir and -workers values.
	StateDir string
	Workers  int

	name      string
	f         *flags
	dialect   isa.Dialect
	translate *isa.Dialect
	obs       *obsflag.Session
	stop      func()
}

func (s *Session) start() error {
	f := s.f
	s.StateDir, s.Workers = f.stateDir, f.workers
	s.Ctx, s.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f.timeout > 0 {
		ctx, cancel := context.WithTimeout(s.Ctx, f.timeout)
		stop := s.stop
		s.Ctx, s.stop = ctx, func() { cancel(); stop() }
	}
	var err error
	if s.Scale, err = workloads.ParseScale(f.scale); err != nil {
		return err
	}
	if f.faultRate < 0 || f.faultRate > 1 {
		return fmt.Errorf("-fault-rate %v outside [0,1]", f.faultRate)
	}
	if f.faultRate > 0 || f.watchdog > 0 {
		s.Faults = &workloads.FaultOptions{Rates: faults.Uniform(f.faultRate), Seed: f.faultSeed, Watchdog: f.watchdog}
	}
	if f.dialect != "" {
		if s.dialect, err = isa.ParseDialect(f.dialect); err != nil {
			return fmt.Errorf("-dialect: %w", err)
		}
	}
	if f.translate != "" {
		d, err := isa.ParseDialect(f.translate)
		if err != nil {
			return fmt.Errorf("-translate: %w", err)
		}
		s.translate = &d
	}
	if s.State, err = runstate.OpenSweep(f.stateDir, f.resume, s.name, os.Stderr); err != nil {
		return err
	}
	if s.obs, err = obsflag.Start(f.obs); err != nil {
		return err
	}
	if f.stateDir != "" {
		s.obs.SetDefaultMetricsPath(filepath.Join(f.stateDir, "metrics.json"))
	}
	return nil
}

// close writes the observability artifacts, then releases the journal
// and the signal handler; it reports the first error.
func (s *Session) close() error {
	var err error
	if s.obs != nil {
		err = s.obs.Close()
	}
	if s.State != nil {
		s.State.Close()
	}
	if s.stop != nil {
		s.stop()
	}
	return err
}

// Err reports why Ctx ended, classifying an expired -timeout as
// faults.ErrUnitTimeout; it is nil while the run may continue.
func (s *Session) Err() error {
	err := s.Ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w after %v: %w", faults.ErrUnitTimeout, s.f.timeout, err)
	}
	return err
}

// Unit returns the trial-1 unit that profiles spec on cfg under the
// parsed scale, fault model and ISA configuration. A nil spec yields a
// template the caller completes.
func (s *Session) Unit(spec *workloads.Spec, cfg device.Config) workloads.Unit {
	return workloads.Unit{Spec: spec, Scale: s.Scale, Cfg: cfg, TrialSeed: 1, Faults: s.Faults,
		Dialect: s.dialect, Translate: s.translate}
}

// Units is Unit for each spec, in order.
func (s *Session) Units(specs []*workloads.Spec, cfg device.Config) []workloads.Unit {
	units := make([]workloads.Unit, len(specs))
	for i, spec := range specs {
		units[i] = s.Unit(spec, cfg)
	}
	return units
}

// Sweep runs units on the topology the flags chose — -fleet worker
// processes, or the in-process pool with -workers shards — journaled to
// the state dir when there is one, and returns their outcomes in unit
// order. save also persists each unit's recording; a fleet then needs a
// state dir, because a worker's in-memory recording dies with it.
func (s *Session) Sweep(units []workloads.Unit, save bool, onOutcome func(workloads.Outcome)) ([]workloads.Outcome, error) {
	var outs []workloads.Outcome
	var err error
	if n := s.f.fleet; n > 0 {
		if save && s.State == nil {
			return nil, errors.New("-fleet requires -state-dir: recordings must outlive the worker processes")
		}
		dir := ""
		if s.State != nil {
			dir = filepath.Join(s.StateDir, "fleet")
		}
		outs, err = fleet.Run(s.Ctx, units, fleet.Options{
			Dir: dir, State: s.State, Resume: s.f.resume, Workers: n, SaveRecordings: save, OnOutcome: onOutcome,
			Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
	} else {
		outs, err = workloads.RunPool(s.Ctx, units, workloads.PoolOptions{
			State: s.State, Resume: s.f.resume, SaveRecordings: save, Workers: s.Workers, OnOutcome: onOutcome,
		})
	}
	if err != nil && s.State != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted; progress journaled in %s — continue with -resume\n", s.name, s.StateDir)
	}
	return outs, err
}

// Progress reports one settled unit on stderr.
func Progress(o workloads.Outcome) {
	switch {
	case o.Err != nil:
		fmt.Fprintf(os.Stderr, "FAILED   %-28s %v\n", o.Unit.Spec.Name, o.Err)
	case o.Resumed:
		fmt.Fprintf(os.Stderr, "resumed  %-28s\n", o.Unit.Spec.Name)
	default:
		fmt.Fprintf(os.Stderr, "profiled %-28s\n", o.Unit.Spec.Name)
	}
}
