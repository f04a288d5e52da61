package fleet

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// EnvWorker, when set in a process's environment, diverts it into the
// fleet worker loop: the value is the worker directory the coordinator
// prepared. Every fleet-capable binary calls MaybeWorker first thing in
// main (test binaries call it from TestMain), which is what lets the
// coordinator spawn workers by re-executing its own binary — no
// separate worker executable to build, install, or version-skew.
const EnvWorker = "GTPIN_FLEET_WORKER"

// MaybeWorker checks the environment and, when this process was spawned
// as a fleet worker, runs the worker loop and exits. It returns (doing
// nothing) in ordinary processes.
func MaybeWorker() {
	dir := os.Getenv(EnvWorker)
	if dir == "" {
		return
	}
	if err := RunWorker(dir); err != nil {
		fmt.Fprintf(os.Stderr, "fleet worker: %v\n", err)
		os.Exit(3)
	}
	os.Exit(0)
}

// Process is the coordinator's handle on a spawned worker — the
// narrow surface the supervision loop needs, and the seam chaos tests
// use to stand in fake workers.
type Process interface {
	// Pid identifies the process for logs and heartbeat cross-checks.
	Pid() int
	// Kill forcibly terminates the worker (SIGKILL semantics: the
	// worker gets no chance to clean up; its flock releases with it).
	Kill() error
	// Exited is closed once the process has been reaped.
	Exited() <-chan struct{}
}

// execProcess adapts exec.Cmd to Process.
type execProcess struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

func (p *execProcess) Pid() int { return p.cmd.Process.Pid }

func (p *execProcess) Kill() error { return p.cmd.Process.Kill() }

func (p *execProcess) Exited() <-chan struct{} { return p.exited }

// spawnSelfEnv starts a worker by re-executing the current binary with
// EnvWorker pointing at workerDir and extraEnv (Options.WorkerEnv)
// appended. The worker's stdout/stderr go to <workerDir>/log for
// post-mortems. This is the default Options.Spawn.
func spawnSelfEnv(workerDir string, extraEnv []string) (Process, error) {
	exe := os.Args[0]
	if p, err := os.Executable(); err == nil {
		exe = p
	}
	logf, err := os.OpenFile(filepath.Join(workerDir, "log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: worker log: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(append(os.Environ(), extraEnv...), EnvWorker+"="+workerDir)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("fleet: spawn worker: %w", err)
	}
	logf.Close() // the child holds its own descriptor
	p := &execProcess{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// exited reports whether a Process has terminated, without blocking.
func exited(p Process) bool {
	select {
	case <-p.Exited():
		return true
	default:
		return false
	}
}
