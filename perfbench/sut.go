package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one SUT process: a hotpathsd or hotpathsgw listening on a
// loopback port, with its log in the run directory.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	hwm  int64 // VmHWM in bytes, sampled just before the process ends
}

// supervisor owns every SUT process a run starts, so each one is stopped
// and waited for on every exit path.
type supervisor struct {
	procs []*proc
}

// launch starts a SUT process on a fresh loopback port.
func (s *supervisor) launch(ctx context.Context, name, bin, logDir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return s.launchAt(ctx, name, bin, addr, logDir, args...)
}

// launchAt starts a SUT process on the given address.
func (s *supervisor) launchAt(ctx context.Context, name, bin, addr, logDir string, args ...string) (*proc, error) {
	p, err := launchAt(ctx, name, bin, addr, logDir, args...)
	if err == nil {
		s.procs = append(s.procs, p)
	}
	return p, err
}

// killAll SIGKILLs every process still running and waits for each.
func (s *supervisor) killAll() {
	for _, p := range s.procs {
		p.kill()
	}
	s.procs = nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launchAt starts bin with args plus -addr addr and waits until it
// answers GET /healthz with 200.
func launchAt(ctx context.Context, name, bin, addr, logDir string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read by whoever stopped the process
		close(p.done)
	}()
	if err := p.waitHealthy(ctx, 60*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// probeClient is used only for health probes and scrapes: no keep-alive,
// so it never holds a connection beside the load generator's.
var probeClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitHealthy polls GET /healthz until it answers 200. The poll interval
// grows with the time already waited (2% of it, within 100µs–5ms), so a
// fast start is timed finely and a slow recovery is not slowed by a
// stream of probes competing for the CPU.
func (p *proc) waitHealthy(ctx context.Context, limit time.Duration) error {
	start := time.Now()
	deadline := start.Add(limit)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up; see %s", p.name, p.log.Name())
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		resp, err := probeClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v (last error %v)", p.name, limit, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(min(max(time.Since(start)/50, 100*time.Microsecond), 5*time.Millisecond)):
		}
	}
}

// sampleHWM records the process's peak resident set (VmHWM).
func (p *proc) sampleHWM() {
	if v, err := vmHWM(p.cmd.Process.Pid); err == nil && v > p.hwm {
		p.hwm = v
	}
}

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	p.sampleHWM()
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-p.done
	p.log.Close()
}

// stop asks for a graceful shutdown and waits; SIGKILL after a grace
// period.
func (p *proc) stop() {
	p.sampleHWM()
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Signal(syscall.SIGKILL)
		<-p.done
	}
	p.log.Close()
}

// vmHWM reads a process's peak resident set size from /proc.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024, nil
	}
	return 0, errors.New("no VmHWM line")
}
