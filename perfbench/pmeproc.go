package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"yourandvalue/internal/obs"
)

// baseFlags are the flags CI boots cmd/pme with; the batcher is on by
// default.
var baseFlags = []string{"-listen", "127.0.0.1:0", "-scale", "0.02", "-per-setup", "30"}

// PME is one running cmd/pme child process.
type PME struct {
	cmd  *exec.Cmd
	Base string // http://127.0.0.1:port
	done chan struct{}
	// log keeps the child's stderr for error reports.
	mu  sync.Mutex
	log bytes.Buffer
}

var listenRE = regexp.MustCompile(`msg="listening[^"]*" addr=(\S+)`)

// StartPME spawns bin with baseFlags plus extra and waits for the first
// /readyz 200. It returns the time from spawn to ready: the set-up time
// a user of the service waits for.
func StartPME(ctx context.Context, bin string, extra ...string) (*PME, time.Duration, error) {
	args := append(append([]string(nil), baseFlags...), extra...)
	p := &PME{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// The server must not outlive the benchmark, even if it is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting pme: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = p.cmd.Wait()
	}()
	fail := func(err error) (*PME, time.Duration, error) {
		p.Stop()
		return nil, 0, fmt.Errorf("%w\npme log:\n%s", err, p.tail())
	}
	select {
	case a := <-addr:
		p.Base = "http://" + a
	case <-p.done:
		return fail(errors.New("pme exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("pme did not listen within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := client.Get(p.Base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.done:
			return fail(errors.New("pme exited before ready"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail(errors.New("pme not ready within 120s"))
		}
	}
}

func (p *PME) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.log.String()
	if len(s) > 4000 {
		s = s[len(s)-4000:]
	}
	return s
}

// Stop interrupts the process, kills it if it has not exited within
// five seconds, and waits for it to end.
func (p *PME) Stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Signal(syscall.SIGKILL)
		<-p.done
	}
}

// PeakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (p *PME) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// CPUSeconds reads the process's CPU time so far, user and system, all
// threads. Time the host stole from the virtual CPU is not in it.
func (p *PME) CPUSeconds() (float64, error) { return processCPUSeconds(p.cmd.Process.Pid) }

// processCPUSeconds reads the CPU-time clock of process pid, the clock
// clock_getcpuclockid(3) returns for it.
func processCPUSeconds(pid int) (float64, error) {
	var ts syscall.Timespec
	clock := (^pid)<<3 | 2 // CPUCLOCK_SCHED of the whole process
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("reading the CPU clock of process %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()).Seconds(), nil
}

// CPUOver reads the server's CPU time at from and at end from a
// goroutine that sleeps until each, or until ctx is done. The returned
// function waits for the second reading and gives the CPU seconds
// between the two.
func (p *PME) CPUOver(ctx context.Context, from, end time.Time) func() (float64, error) {
	type reading struct {
		sec float64
		err error
	}
	ch := make(chan reading, 1)
	go func() {
		var a, b float64
		err := sleepUntil(ctx, from)
		if err == nil {
			a, err = p.CPUSeconds()
		}
		if err == nil {
			err = sleepUntil(ctx, end)
		}
		if err == nil {
			b, err = p.CPUSeconds()
		}
		ch <- reading{b - a, err}
	}()
	return func() (float64, error) {
		r := <-ch
		return r.sec, r.err
	}
}

func sleepUntil(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Scrape fetches and strictly parses /metrics.
func (p *PME) Scrape() ([]obs.Family, error) {
	resp, err := http.Get(p.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// sample returns one series value of a scraped family (0 if absent).
func sample(fams []obs.Family, name string, labels obs.Labels) float64 {
	f, ok := obs.FindFamily(fams, name)
	if !ok {
		return 0
	}
	v, _ := f.Sample(labels)
	return v
}
