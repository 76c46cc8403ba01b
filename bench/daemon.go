package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one lzssd process the benchmark started.
type daemon struct {
	cmd  *exec.Cmd
	addr map[string]string // front ("tcp", "http", "metrics") → bound address
	// eof is closed once the process's stdout ended, after which Wait
	// may run.
	eof chan struct{}
}

// spawn starts lzssd and waits until it has announced an address for
// every front in want ("lzssd: tcp listening on 127.0.0.1:40123").
func spawn(bin string, want []string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark itself die, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lzssd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: map[string]string{}, eof: make(chan struct{})}
	// A daemon announces at most three fronts, so the scanner never
	// blocks on this channel.
	found := make(chan [2]string, 3)
	go func() {
		defer close(d.eof)
		defer close(found)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) == 5 && f[0] == "lzssd:" && f[2] == "listening" && f[3] == "on" {
				found <- [2]string{f[1], f[4]}
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck // drain after a scanner error
	}()
	timeout := time.After(20 * time.Second)
	for len(d.addr) < len(want) {
		select {
		case fa, ok := <-found:
			if !ok {
				d.stop() //nolint:errcheck // reporting the exit instead
				return nil, fmt.Errorf("lzssd %v exited before announcing its fronts", args)
			}
			d.addr[fa[0]] = fa[1]
		case <-timeout:
			d.stop() //nolint:errcheck // reporting the timeout instead
			return nil, fmt.Errorf("lzssd %v announced %v, want %v", args, d.addr, want)
		}
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs),
// waits for it to exit and returns its peak resident set in MiB.
func (d *daemon) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)                                   //nolint:errcheck // it may have exited already
	kill := time.AfterFunc(20*time.Second, func() { d.cmd.Process.Kill() }) //nolint:errcheck
	<-d.eof
	err := d.cmd.Wait()
	kill.Stop()
	// lzssd installs its SIGTERM handler just after it announces its
	// fronts, so a daemon stopped right after set-up may die of the
	// signal itself; that is a clean stop too.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	if err != nil {
		err = fmt.Errorf("lzssd exit: %w", err)
	}
	return maxRSS(d.cmd.ProcessState), err
}

// scrape reads a daemon's /metrics as name → value, histograms folded
// to their _sum and _count samples.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
