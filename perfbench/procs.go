package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server child process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// startProc launches bin with args, its standard error going to a log
// file in dir. The caller owns the process and must stop it.
func startProc(dir, name, bin string, port int, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-q"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If perfbench dies without stopping its servers, they die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	live.add(p)
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		live.remove(p)
		close(p.done)
	}()
	return p, nil
}

// live tracks the running children, so an interrupted benchmark can
// stop them before it exits.
var live = &procSet{m: map[*proc]bool{}}

type procSet struct {
	mu sync.Mutex
	m  map[*proc]bool
}

func (s *procSet) add(p *proc) {
	s.mu.Lock()
	s.m[p] = true
	s.mu.Unlock()
}

func (s *procSet) remove(p *proc) {
	s.mu.Lock()
	delete(s.m, p)
	s.mu.Unlock()
}

// killAll kills every running child and waits for each to exit.
func (s *procSet) killAll() {
	s.mu.Lock()
	ps := make([]*proc, 0, len(s.m))
	for p := range s.m {
		ps = append(ps, p)
	}
	s.mu.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill() // already exiting is fine: we wait below
	}
	for _, p := range ps {
		<-p.done
	}
}

// stop asks the process to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes longer than the server's own grace.
func (p *proc) stop() error {
	select {
	case <-p.done:
		return p.exitErr()
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signalling %s: %w", p.name, err)
	}
	select {
	case <-p.done:
		return p.exitErr()
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill() // the wait below reports the outcome
		<-p.done
		return fmt.Errorf("%s did not drain within 20s and was killed", p.name)
	}
}

func (p *proc) exitErr() error {
	if p.err != nil {
		return fmt.Errorf("%s exited: %w (log: %s)", p.name, p.err, p.log.Name())
	}
	return nil
}

// stopAll stops every process and returns the first failure.
func stopAll(ps []*proc) error {
	var first error
	for _, p := range ps {
		if p == nil {
			continue
		}
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// waitReady polls GET /readyz until it answers 200. Polls are a
// millisecond apart, so readiness is seen within about a millisecond of
// the server getting there.
func waitReady(p *proc, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready: %v (log: %s)", p.name, p.err, p.log.Name())
		default:
		}
		resp, err := hc.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error %v)", p.name, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every mainstream Linux build.
const clockTicks = 100

// cpuMillis returns the user+system CPU time of the process so far.
func cpuMillis(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 of the whole line.
	s := string(raw)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) * 1000 / clockTicks, nil
}

// peakRSSMB returns VmHWM, the peak resident set of the process, in MB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// serverCPU sums the CPU milliseconds of the processes.
func serverCPU(ps []*proc) (float64, error) {
	var sum float64
	for _, p := range ps {
		ms, err := cpuMillis(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += ms
	}
	return sum, nil
}

// serverPeakRSS sums VmHWM over the processes.
func serverPeakRSS(ps []*proc) (float64, error) {
	var sum float64
	for _, p := range ps {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// hostStall returns the machine's CPU time so far spent waiting for
// I/O and stolen by the hypervisor, in milliseconds (/proc/stat). They
// are reported beside a run to show when outside load moved it.
func hostStall() (iowait, steal float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	io, err1 := strconv.ParseInt(f[5], 10, 64)
	st, err2 := strconv.ParseInt(f[8], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return float64(io) * 1000 / clockTicks, float64(st) * 1000 / clockTicks, nil
}
