// Command servebench measures a real motifserve end to end. It starts
// the cmd/motifserve binary as a child process, loads it with inputs
// generated from the seed, drives it from two closed-loop clients along
// schedules fixed before the timed window, checks every answer against a
// direct library call, and prints the metrics as one JSON line. With
// -trace 1 it also runs the traced host (./tracehost) on the same
// workload and prints per-layer metrics instead.
//
// Run it through run.sh from the root of a checkout, which builds the
// binaries first:
//
//	bash servebench/run.sh --workload discover-warm --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"trajmotif/servebench/span"
)

// setups is how many times a run sets its server up; setup_s is their
// median. Only the last one serves the timed window.
const setups = 3

func main() {
	workload := flag.String("workload", "", "discover-cold, discover-warm, disk-warm or retrieval")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run, printing per-layer metrics")
	bin := flag.String("bin", ".bench_build", "directory holding the motifserve and tracehost binaries; working files go under it too")
	flag.Parse()

	p, err := newPlan(*workload, *seed)
	if err != nil {
		fail(err)
	}
	work, err := os.MkdirTemp(*bin, "work-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(work)
	b := &bench{workload: *workload, p: p, bin: *bin, work: work, dur: time.Duration(*seconds * float64(time.Second))}
	fmt.Println(b.env())
	var out *output
	if *trace == 1 {
		out, err = b.traced()
	} else {
		out, err = b.endToEnd()
	}
	if err != nil {
		os.RemoveAll(work)
		fail(err)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "servebench:", e)
	}
	line, err := json.Marshal(out.json())
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

type bench struct {
	workload string
	p        *plan
	bin      string
	work     string
	dur      time.Duration
	nsetup   int
}

// instance is a server set up and ready for its timed window.
type instance struct {
	srv     *server
	clients [2]*client
	dir     string
	before  statsJSON
}

// statsJSON is the part of GET /stats the self-checks and per-layer
// metrics read.
type statsJSON struct {
	Built, Reused, Evicted          int64
	CacheBytes                      int64
	PairDistsBuilt, PairDistsReused int64
	DiskWrites, DiskReads           int64
	Rejected                        int64
}

func (s statsJSON) minus(o statsJSON) statsJSON {
	return statsJSON{
		Built: s.Built - o.Built, Reused: s.Reused - o.Reused, Evicted: s.Evicted - o.Evicted,
		CacheBytes:     s.CacheBytes,
		PairDistsBuilt: s.PairDistsBuilt - o.PairDistsBuilt, PairDistsReused: s.PairDistsReused - o.PairDistsReused,
		DiskWrites: s.DiskWrites - o.DiskWrites, DiskReads: s.DiskReads - o.DiskReads,
		Rejected: s.Rejected - o.Rejected,
	}
}

// setup starts a server from bin and brings it to the first timed
// request: boot, bulk load, the warm pass and, for disk-warm, the
// snapshot and restart. final are extra flags for the server that
// serves the timed window.
func (b *bench) setup(bin string, final ...string) (*instance, time.Duration, error) {
	args := []string{"-workers", "1"}
	in := &instance{}
	if b.p.restart {
		in.dir = filepath.Join(b.work, fmt.Sprintf("artifacts-%d", b.nsetup))
		b.nsetup++
		args = append(args, "-artifact-dir", in.dir)
	}
	start := time.Now()
	first := append(slices.Clone(args), b.p.serverArgs...)
	if !b.p.restart {
		first = append(first, final...)
	}
	srv, err := startServer(bin, first...)
	if err != nil {
		return nil, 0, err
	}
	in.srv = srv
	in.clients = [2]*client{newClient(srv.addr), newClient(srv.addr)}
	fail := func(err error) (*instance, time.Duration, error) {
		in.close()
		return nil, 0, err
	}
	if err := b.bulkLoad(in.clients[0]); err != nil {
		return fail(err)
	}
	if err := parallel(in.clients, b.p.warm); err != nil {
		return fail(err)
	}
	if b.p.restart {
		in.clients[0].close()
		in.clients[1].close()
		if err := srv.stop(); err != nil {
			return fail(fmt.Errorf("stop before restart: %w", err))
		}
		restart := append(append(slices.Clone(args), b.p.restartArgs...), final...)
		if in.srv, err = startServer(bin, restart...); err != nil {
			in.srv = nil
			return fail(err)
		}
		in.clients = [2]*client{newClient(in.srv.addr), newClient(in.srv.addr)}
	}
	// Open both keep-alive connections before timing.
	health := request{method: "GET", path: "/healthz"}
	if err := parallel(in.clients, []request{health, health}); err != nil {
		return fail(err)
	}
	if err := in.clients[0].getJSON("/stats", &in.before); err != nil {
		return fail(err)
	}
	return in, time.Since(start), nil
}

// bulkLoad registers the plan's trajectories in one NDJSON upload and
// checks every id the server assigned.
func (b *bench) bulkLoad(c *client) error {
	status, body, err := c.do("POST", "/trajectories/bulk", b.p.bulk, "")
	if err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	var resp struct {
		Records []struct{ ID string }
		Stored  int
	}
	if status != http.StatusOK {
		return fmt.Errorf("bulk load: status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	if resp.Stored != len(b.p.ids) || len(resp.Records) != len(b.p.ids) {
		return fmt.Errorf("bulk load stored %d of %d trajectories", resp.Stored, len(b.p.ids))
	}
	for k, r := range resp.Records {
		if r.ID != string(b.p.ids[k]) {
			return fmt.Errorf("bulk load record %d: id %s, want %s", k, r.ID, b.p.ids[k])
		}
	}
	return nil
}

// close stops the server (if any) and removes its artifact directory.
func (in *instance) close() error {
	in.clients[0].close()
	in.clients[1].close()
	var err error
	if in.srv != nil {
		err = in.srv.stop()
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
	return err
}

// measurement is one timed window on one server.
type measurement struct {
	results []result
	elapsed time.Duration
	delta   statsJSON
	cpu     time.Duration
	rss     int64
	rt      [2]span.Runtime // traced host only
}

func (b *bench) measure(in *instance, dur time.Duration, traced bool) (*measurement, error) {
	m := &measurement{}
	if traced {
		if err := in.clients[0].getJSON("/bench/runtime", &m.rt[0]); err != nil {
			return nil, err
		}
	}
	cpu0, err := in.srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	m.results, m.elapsed, err = window(in.clients, b.p.clients, dur, traced)
	if err != nil {
		return nil, err
	}
	cpu1, err := in.srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	m.cpu = time.Duration(cpu1-cpu0) * time.Second / clockTick
	var after statsJSON
	if err := in.clients[0].getJSON("/stats", &after); err != nil {
		return nil, err
	}
	m.delta = after.minus(in.before)
	if traced {
		if err := in.clients[0].getJSON("/bench/runtime", &m.rt[1]); err != nil {
			return nil, err
		}
	}
	if m.rss, err = in.srv.peakRSS(); err != nil {
		return nil, err
	}
	return m, nil
}

// output is what a run prints.
type output struct {
	attempted int
	// failed counts requests answered with a non-2xx status, a transport
	// error or a wrong answer; errs holds their reasons and any broken
	// self-check.
	failed  int
	errs    []error
	metrics []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (o *output) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *output) json() map[string]any {
	ms := map[string]any{}
	for _, m := range o.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return map[string]any{
		"correct":   len(o.errs) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   ms,
	}
}

// endToEnd is the untraced run: several setups, one timed window on
// motifserve, the oracle and the self-checks.
func (b *bench) endToEnd() (*output, error) {
	motifserve := filepath.Join(b.bin, "motifserve")
	var setupTimes []float64
	var in *instance
	for k := 0; k < setups; k++ {
		next, d, err := b.setup(motifserve)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if k < setups-1 {
			if err := next.close(); err != nil {
				return nil, err
			}
			continue
		}
		in = next
	}
	m, err := b.measure(in, b.dur, false)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := &output{attempted: len(m.results)}
	b.check(out, m)
	lat := latencies(m.results)
	n := float64(len(m.results))
	out.add("latency_p50_ms", percentile(lat, 50), "ms")
	out.add("latency_p95_ms", percentile(lat, 95), "ms")
	out.add("throughput_rps", n/m.elapsed.Seconds(), "1/s")
	out.add("server_cpu_ms_per_req", float64(m.cpu)/float64(time.Millisecond)/n, "ms")
	out.add("server_peak_rss_mb", float64(m.rss)/(1<<20), "MiB")
	out.add("setup_s", percentile(setupTimes, 50), "s")
	fmt.Printf("# %s: %d timed requests in %.2fs (p50 and p95 over all of them), setups %v s\n",
		b.workload, len(m.results), m.elapsed.Seconds(), setupTimes)
	return out, nil
}

// check runs the oracle over a window's answers and the workload's
// self-checks over its /stats deltas, recording failures in out, and
// returns the decoded answers.
func (b *bench) check(out *output, m *measurement) []parsed {
	got, fails := verify(newOracle(b.p), m.results)
	out.failed += len(fails)
	out.errs = append(out.errs, fails...)
	out.errs = append(out.errs, b.selfCheck(m)...)
	return got
}

// selfCheck holds the exact /stats invariants of each workload over its
// timed window.
func (b *bench) selfCheck(m *measurement) []error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf("self-check: "+format, args...)) }
	discovers := int64(0)
	for _, r := range m.results {
		if r.req.kind == kDiscover {
			discovers++
		}
		if r.status == http.StatusTooManyRequests || r.status >= 500 {
			bad("%s %s answered %d", r.req.method, r.req.path, r.status)
		}
	}
	d := m.delta
	if d.Rejected != 0 {
		bad("%d admission rejections", d.Rejected)
	}
	switch b.workload {
	case "discover-cold":
		if d.Built != 2*discovers || d.Reused != 0 {
			bad("built %d reused %d over %d cold discovers, want built 2 per request and reused 0", d.Built, d.Reused, discovers)
		}
	case "discover-warm":
		if d.Built != 0 {
			bad("built %d over %d warm discovers, want 0", d.Built, discovers)
		}
	case "disk-warm":
		if d.Built != 0 || d.DiskReads != 2*discovers || d.DiskWrites != 0 {
			bad("built %d diskReads %d diskWrites %d over %d discovers, want 0, 2 per request, 0", d.Built, d.DiskReads, d.DiskWrites, discovers)
		}
	case "retrieval":
		if d.PairDistsReused <= 0 {
			bad("pairDistsReused %d, want > 0", d.PairDistsReused)
		}
	}
	return errs
}

func latencies(rs []result) []float64 {
	out := make([]float64, len(rs))
	for k := range rs {
		out[k] = rs[k].latencyMS()
	}
	return out
}

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	x := p / 100 * float64(len(s)-1)
	lo := int(x)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
}

// env describes the machine the numbers come from.
func (b *bench) env() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("# env nproc=%d cpu=%q go=%s artifact_fs=%s workload=%s window=%v clients=2 server=-workers 1",
		runtime.NumCPU(), cpu, runtime.Version(), fsType(b.work), b.workload, b.dur)
}

// fsType names the filesystem holding dir, for the record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
