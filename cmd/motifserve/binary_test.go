package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The binary tests share one motifserve build: the first test to start a
// server compiles it into binDir, which TestMain removes when the run
// ends.
var (
	binDir    string
	buildOnce sync.Once
	buildErr  error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "motifserve-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// motifserveBin returns the path of the binary, building it on first
// use. It skips the calling test under -short.
func motifserveBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs a binary; skipped in -short")
	}
	bin := filepath.Join(binDir, "motifserve")
	buildOnce.Do(func() {
		build := exec.Command("go", "build", "-o", bin, ".")
		build.Stderr = os.Stderr
		buildErr = build.Run()
	})
	if buildErr != nil {
		t.Fatalf("go build: %v", buildErr)
	}
	return bin
}

// serverProc is one run of the motifserve binary: the process, its base
// URL, and the stdout scanner (kept so the shutdown lines can be read
// after SIGTERM).
type serverProc struct {
	cmd  *exec.Cmd
	base string
	sc   *bufio.Scanner
}

// startMotifserve launches the binary with args, waits for the listen
// line (skipping the restore line a warm boot prints first) and for
// /healthz.
func startMotifserve(t *testing.T, args ...string) *serverProc {
	t.Helper()
	cmd := exec.Command(motifserveBin(t), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "listening on") {
			addr = line[strings.LastIndex(line, " ")+1:]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen line: %v", sc.Err())
	}
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return &serverProc{cmd: cmd, base: base, sc: sc}
}

// stop SIGTERMs the process, drains stdout and waits for a clean exit,
// returning the post-signal output (drain/snapshot/stop lines).
func (p *serverProc) stop(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for p.sc.Scan() {
		out.WriteString(p.sc.Text() + "\n")
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v (output: %s)", err, out.String())
	}
	return out.String()
}

func (p *serverProc) post(t *testing.T, path string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
}

func (p *serverProc) get(t *testing.T, path string, out any) {
	t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}
