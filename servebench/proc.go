package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running server process: cmd/motifserve, or the traced
// host, which takes the same flags.
type server struct {
	cmd  *exec.Cmd
	addr string
	// exited is closed once the process has been reaped.
	exited chan struct{}
	err    error
}

// startServer starts bin with args plus a free loopback port and waits
// for its "listening on" line.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " listening on "); ok {
				addrc <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("%s exited before listening: %v", bin, s.err)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("%s did not start listening within 30s", bin)
	}
}

// stop sends SIGTERM (a graceful drain, which also writes the snapshot
// or the span file) and waits for the process to exit.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.err
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("server did not stop within 60s of SIGTERM")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// cpuTicks is the process's user+system CPU in clock ticks, from
// /proc/<pid>/stat.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	return u + k, nil
}

// clockTick is USER_HZ: the unit of /proc/<pid>/stat times, 100 on
// every Linux architecture Go supports.
const clockTick = 100

// peakRSS is the process's VmHWM in bytes.
func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", v)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
