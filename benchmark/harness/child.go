package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/sut"
)

// child is one running SUT process.
type child struct {
	cmd    *exec.Cmd
	out    *bufio.Reader // the SUT's standard output, read line by line
	addr   string
	stderr bytes.Buffer
}

// spawn starts the SUT binary for spec and waits for the address it
// prints. The SUT listens on port 0, so two runs can never collide on a
// port and a half-dead predecessor cannot answer for its successor.
func spawn(bin string, spec sut.Spec) (*child, error) {
	c := &child{}
	c.cmd = exec.Command(bin, "-workload", spec.Workload, "-dir", spec.Dir)
	c.cmd.Stderr = &c.stderr
	// If the harness dies without reaching kill, the SUT must not outlive it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	c.out = bufio.NewReader(out)
	line, err := c.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "listening ") {
		c.kill()
		return nil, fmt.Errorf("sut did not report its address (got %q, err %v): %s", line, err, c.stderr.String())
	}
	c.addr = strings.TrimSpace(strings.TrimPrefix(line, "listening "))
	return c, nil
}

// kill sends SIGKILL and reaps the process, so nothing of it is left when
// the next one starts.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // the exit status of a killed child carries no information
}

// checkpoint asks the SUT for a checkpoint and waits for its outcome.
func (c *child) checkpoint() error {
	if err := c.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		return err
	}
	line, err := c.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "checkpoint ok" {
		return fmt.Errorf("sut checkpoint: %q (err %v): %s", line, err, c.stderr.String())
	}
	return nil
}

// cpuNS is the on-CPU time of every thread of the process, from the
// scheduler's own accounting (nanosecond precision; utime/stime in
// /proc/<pid>/stat tick at 10 ms).
func (c *child) cpuNS() (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d (err %v)", c.cmd.Process.Pid, err)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		total += ns
	}
	return total, nil
}

// rssPeakMB is the process's resident-set high-water mark.
func (c *child) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// since is a float-seconds helper for set-up and recovery timings.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
