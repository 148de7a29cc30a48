//go:build gate

// The process gates: middled's cloud, edge and devices roles, middlesim,
// middleplot and the bench binary, run as real processes against each
// other. TestMain builds the four binaries once; each gate runs alone:
//
//	go test -tags gate .                              # all ten
//	go test -tags gate -run TestGateFailover -v .     # one
//
// Every process logs into a directory that a failing gate keeps; the
// failure names the log's path and prints its tail.
package middle_test

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"middle"
	"middle/internal/data"
	"middle/internal/experiments"
	"middle/internal/fednet"
	"middle/internal/mobility"
)

// binDir holds the binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "middle-gate-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := 1
	if out, err := exec.Command("go", "build", "-o", dir+"/", "./cmd/middled", "./cmd/middlesim", "./cmd/middleplot", "./bench").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the gate binaries: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// logDir returns a directory for t's process logs, removed when t passes
// and kept when it fails.
func logDir(t *testing.T) string {
	dir, err := os.MkdirTemp("", "middle-"+t.Name()+"-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// proc is one gate process; its stdout and stderr go to one log file.
type proc struct {
	t    *testing.T
	log  string
	cmd  *exec.Cmd
	done chan struct{}
}

// addrRE follows a log line's announcement to capture its host:port.
const addrRE = ` ([0-9.:]+)`

// start runs the built binary name with args, logging to dir/logName.
// The process is killed when t ends.
func start(t *testing.T, dir, logName, name string, args ...string) *proc {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{t: t, log: f.Name(), cmd: exec.Command(filepath.Join(binDir, name), args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = f, f
	if err := p.cmd.Start(); err != nil {
		f.Close()
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait() // its outcome is read from ProcessState
		f.Close()
		close(p.done)
	}()
	t.Cleanup(func() { p.stop(syscall.SIGKILL) })
	return p
}

// text returns p's log so far.
func (p *proc) text() string {
	b, _ := os.ReadFile(p.log)
	return string(b)
}

// need fails the test with the message, the kept log's path and its
// last 30 lines unless ok.
func (p *proc) need(ok bool, format string, args ...any) {
	p.t.Helper()
	if ok {
		return
	}
	lines := strings.SplitAfter(p.text(), "\n")
	p.t.Fatalf("%s\nkept log %s ends:\n%s", fmt.Sprintf(format, args...), p.log, strings.Join(lines[max(0, len(lines)-31):], ""))
}

// until polls ok every 50 ms and fails, naming what, once p has exited or
// within has passed without ok holding.
func (p *proc) until(within time.Duration, what string, ok func() bool) {
	p.t.Helper()
	for deadline := time.Now().Add(within); ; time.Sleep(50 * time.Millisecond) {
		gone := p.exited()
		if ok() {
			return
		}
		p.need(!gone && time.Now().Before(deadline), "never saw %s within %v", what, within)
	}
}

// await waits up to within for pattern in p's log and returns its last
// submatch.
func (p *proc) await(within time.Duration, pattern string) string {
	p.t.Helper()
	re := regexp.MustCompile(pattern)
	var m []string
	p.until(within, fmt.Sprintf("%q in the log", pattern), func() bool {
		m = re.FindStringSubmatch(p.text())
		return m != nil
	})
	return m[len(m)-1]
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// exit waits up to within for p to exit and returns its exit code.
func (p *proc) exit(within time.Duration) int {
	p.t.Helper()
	select {
	case <-p.done:
	case <-time.After(within):
		p.need(false, "still running after %v", within)
	}
	return p.cmd.ProcessState.ExitCode()
}

// stop sends sig and waits for p to exit.
func (p *proc) stop(sig syscall.Signal) {
	p.cmd.Process.Signal(sig) // fails only once p has exited
	<-p.done
}

var client = http.Client{Timeout: 5 * time.Second}

// get returns the body served at http://addrPath, or "" on an error or a
// non-2xx status.
func get(addrPath string) string {
	resp, err := client.Get("http://" + addrPath)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		return ""
	}
	return string(b)
}

// number parses pattern's first submatch in s.
func number(s, pattern string) (float64, bool) {
	m := regexp.MustCompile(pattern).FindStringSubmatch(s)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	return v, err == nil
}

func fileHas(path, want string) bool {
	b, _ := os.ReadFile(path)
	return strings.Contains(string(b), want)
}

func hasCheckpoint(dir string) bool {
	m, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	return len(m) > 0
}

// cloud starts middled's cloud role on a free port with Tc = 2.
func cloud(t *testing.T, dir, logName string, args ...string) *proc {
	t.Helper()
	return start(t, dir, logName, "middled", append([]string{"-role", "cloud", "-addr", "127.0.0.1:0", "-tc", "2"}, args...)...)
}

// edge starts middled's edge role id under the cloud at cloudAddr,
// serving devices on addr with MIDDLE at K = 2.
func edge(t *testing.T, dir, logName, id, cloudAddr, addr string) *proc {
	t.Helper()
	return start(t, dir, logName, "middled", "-role", "edge", "-id", id, "-cloud", cloudAddr, "-addr", addr, "-strategy", "MIDDLE", "-k", "2")
}

// fleet starts a cloud with one edge and devices 0..3 under it.
func fleet(t *testing.T, dir, prefix string, cloudArgs ...string) (c, e, d *proc) {
	t.Helper()
	c = cloud(t, dir, prefix+"cloud.log", append([]string{"-edges", "1"}, cloudArgs...)...)
	cloudAddr := c.await(10*time.Second, "cloud listening on"+addrRE)
	e = edge(t, dir, prefix+"edge.log", "0", cloudAddr, "127.0.0.1:0")
	d = start(t, dir, prefix+"devices.log", "middled", "-role", "devices", "-cloud", cloudAddr,
		"-edgeaddrs", e.await(10*time.Second, "serving devices on"+addrRE), "-from", "0", "-to", "3")
	return c, e, d
}

// TestGateMetrics: a cloud serves /metrics, /status and /debug/trace on
// its -metrics-addr.
func TestGateMetrics(t *testing.T) {
	c := cloud(t, logDir(t), "middled.log", "-edges", "1", "-rounds", "1", "-metrics-addr", "127.0.0.1:0")
	addr := c.await(5*time.Second, "metrics listening on"+addrRE)
	body := get(addr + "/metrics")
	for _, want := range []string{"fednet_rounds_total", "process_goroutines", "tensor_kernel_matmul_calls"} {
		c.need(strings.Contains(body, want), "/metrics is missing the %s series", want)
	}
	c.need(strings.Contains(get(addr+"/status"), `"role": "cloud"`), "/status did not report role=cloud")
	c.need(strings.Contains(get(addr+"/debug/trace"), `"traceEvents"`), "/debug/trace did not serve a trace document")
}

// TestGateTelemetry: a live middlesim run exposes the learning-dynamics
// series, passes the default SLO gate fault-free, and leaves a trace,
// telemetry events and a tsdb dump middleplot can chart.
func TestGateTelemetry(t *testing.T) {
	dir := logDir(t)
	out := func(name string) string { return filepath.Join(dir, name) }
	// 200 steps keep the run alive long enough to poll the live series.
	s := start(t, dir, "middlesim.log", "middlesim", "-exp", "run", "-task", "mnist", "-steps", "200",
		"-metrics-addr", "127.0.0.1:0", "-slo", "default", "-tsdb-interval", "100ms", "-tsdb-out", out("run.tsdb.json"),
		"-trace-out", out("run.trace.json"), "-telemetry-out", out("run.telemetry.jsonl"))
	addr := s.await(10*time.Second, "metrics listening on"+addrRE)
	s.until(5*time.Second, "hfl_selection_utility and hfl_edge_divergence on the live /metrics", func() bool {
		live := get(addr + "/metrics")
		return strings.Contains(live, "hfl_selection_utility") && strings.Contains(live, "hfl_edge_divergence")
	})
	s.need(s.exit(5*time.Minute) == 0, "middlesim run failed")
	s.need(fileHas(out("run.trace.json"), `"traceEvents"`), "-trace-out wrote no trace document")
	s.need(fileHas(out("run.telemetry.jsonl"), `"event":"round"`), "-telemetry-out wrote no round events")
	s.need(fileHas(out("run.telemetry.jsonl"), `"event":"eval"`), "-telemetry-out wrote no eval events")
	dump, _ := os.ReadFile(out("run.tsdb.json"))
	s.need(strings.Contains(string(dump[:min(16, len(dump))]), `{"tsdb":1`), "-tsdb-out wrote no tsdb dump")
	plot := start(t, dir, "run.tsdb.txt", "middleplot", "-in", out("run.tsdb.json"))
	plot.need(plot.exit(time.Minute) == 0, "middleplot could not render the tsdb dump")
	plot.need(strings.Contains(plot.text(), "hfl_global_accuracy"), "tsdb dump chart is missing the accuracy series")
}

// TestGateKillResume: SIGKILL the cloud once a checkpoint lands, restart
// the deployment over the same directory, and the new cloud resumes and
// finishes the remaining rounds.
func TestGateKillResume(t *testing.T) {
	dir := logDir(t)
	ckpt := filepath.Join(dir, "ckpt")
	c, e, d := fleet(t, dir, "1_", "-rounds", "8", "-checkpoint-dir", ckpt)
	// The kill lands mid-run or just after completion; resume handles both.
	c.until(30*time.Second, "a checkpoint in "+ckpt, func() bool { return hasCheckpoint(ckpt) })
	c.stop(syscall.SIGKILL)
	e.stop(syscall.SIGTERM)
	d.stop(syscall.SIGTERM)
	c, _, _ = fleet(t, dir, "2_", "-rounds", "8", "-checkpoint-dir", ckpt)
	c.await(10*time.Second, "resuming from checkpoint")
	c.await(60*time.Second, "training complete")
}

// TestGateMillionDevices is the scale acceptance gate: a 1M-device,
// 1k-edge lazy-store run finishes under 142 MiB of RSS with at most
// -resident-cap models resident and its population-wide pass cheaper
// than training the cohort, while the dashboard and query/alert APIs
// serve a bounded series count and no SLO fires. Of the run's two
// mobility draws after M^0, select_s holds only the first (M^1); M^2 is
// drawn beside step 1's training, inside train_s's wall time.
func TestGateMillionDevices(t *testing.T) {
	dir := logDir(t)
	s := start(t, dir, "scale.log", "middlesim", "-exp", "scale", "-devices", "1000000", "-edges", "1000",
		"-k", "1", "-tc", "2", "-steps", "2", "-resident-cap", "4096", "-metrics-addr", "127.0.0.1:0", "-slo", "default")
	addr := s.await(10*time.Second, "metrics listening on"+addrRE)
	s.until(120*time.Second, "a series count in (0, 4096], the dashboard, obs_series points and zero firing SLOs", func() bool {
		n, ok := number(get(addr+"/api/series"), `"count":([0-9]+)`)
		return ok && n > 0 && n <= 4096 &&
			strings.Contains(get(addr+"/dashboard"), "middle dashboard") &&
			strings.Contains(get(addr+"/api/query?series=obs_series"), `"points":[[`) &&
			strings.Contains(get(addr+"/api/alerts"), `"firing": 0`)
	})
	s.need(s.exit(10*time.Minute) == 0, "million-device scale run failed (or an SLO fired fault-free)")
	out := s.text()
	t.Log(out)
	rss, ok := number(out, `peak_rss_mib=([0-9]+)`)
	s.need(ok, "scale run never reported peak_rss_mib")
	// Measured at 124–125 MiB on 2 CPUs (select_s 0.10–0.13, train_s
	// 0.68–0.72 over ten runs), 4 MB of it the 1,000² matrix of moves
	// drawn beside training; 122–123 MiB (select_s 0.13–0.18, train_s
	// 0.66–0.80) while each step drew its own membership in its select
	// phase and built its candidate lists serially; 144–145 with the
	// simulator's per-device steps, training counts and candidate ids in
	// 8-byte words and a moved flag per device, and a copy of d_m, a
	// window header and a move probability per device on top read 174–196.
	s.need(rss < 142, "peak RSS %v MiB breaches the 142 MiB scale ceiling", rss)
	resident, ok := number(out, `peak_resident_models=([0-9]+)`)
	s.need(ok && resident <= 4096, "peak_resident_models is %v (reported: %t), want at most the 4096 cap", resident, ok)
	sel, ok1 := number(out, ` select_s=([0-9.]+)`)
	train, ok2 := number(out, ` train_s=([0-9.]+)`)
	s.need(ok1 && ok2, "scale run never reported select_s/train_s")
	s.need(sel <= train, "select phase %vs exceeds training %vs on the 1M-device run", sel, train)
	// A cohort larger than -resident-cap is rejected with a clear message.
	bad := start(t, dir, "scale_bad.log", "middlesim", "-exp", "scale", "-devices", "1000", "-edges", "10", "-k", "5", "-resident-cap", "49")
	bad.need(bad.exit(time.Minute) != 0, "cohort > resident-cap was not rejected")
	bad.need(strings.Contains(bad.text(), "cohort"), "rejection message does not explain the cohort constraint")
}

// benchGate runs one bench workload for 1 s and returns its last line,
// the contract object, failing unless the run exits 0 and the object
// says "correct":true (target reached, final accuracy over its floor,
// model finite).
func benchGate(t *testing.T, workload string) (*proc, string) {
	b := start(t, logDir(t), "bench_"+workload+".log", "bench", "-workload", workload, "-seconds", "1")
	code := b.exit(10 * time.Minute)
	lines := strings.Split(strings.TrimSpace(b.text()), "\n")
	last := lines[len(lines)-1]
	b.need(code == 0 && strings.Contains(last, `"correct":true`), "bench %s run is not correct", workload)
	t.Log(last)
	return b, last
}

// TestGateBenchFleet: the population-scale workload at its fixed job.
func TestGateBenchFleet(t *testing.T) { benchGate(t, "sim_fleet") }

// TestGateBenchTTA: the training-bound workload, which also replays a
// same-seed prefix on a second engine for the same model hash. Its peak
// RSS (~165 MB) is a property of the program, not of the box's speed.
func TestGateBenchTTA(t *testing.T) {
	b, last := benchGate(t, "sim_tta")
	rss, _ := number(last, `"peak_rss_mb":\{"value":([0-9.]+)`)
	b.need(rss > 0 && rss <= 240, "bench sim_tta peak_rss_mb is %v, want at most 240", rss)
}

// TestGateBenchSteady: the deployment's steady workload, ~34 model
// frames a round through the pooled codec.
func TestGateBenchSteady(t *testing.T) { benchGate(t, "net_steady") }

// TestGateMigration: a high-mobility in-process deployment with
// -live-migration completes a handover (the summary's ok count is
// fednet_migrations_total{outcome="ok"}), strands no device and reports
// a fault-free membership at the epoch the initial joins reached. A
// deployment computes one model per seed, moves included: a second run
// prints the same final accuracy, to the digit.
func TestGateMigration(t *testing.T) {
	dir := logDir(t)
	final := regexp.MustCompile(`final accuracy (\S+)`)
	var accs [2]string
	for run, log := range []string{"mig_deploy.log", "mig_deploy2.log"} {
		m := start(t, dir, log, "middlesim", "-exp", "scale", "-devices", "24", "-edges", "3", "-k", "2",
			"-tc", "2", "-steps", "8", "-mux", "2", "-p", "0.6", "-seed", "3", "-live-migration")
		m.need(m.exit(5*time.Minute) == 0, "live-migration deployment run failed")
		out := m.text()
		m.need(regexp.MustCompile(`migrations: [1-9][0-9]* ok`).MatchString(out), "deployment reported no successful migrations")
		m.need(strings.Contains(out, " 0 stranded devices"), "fault-free deployment ended with stranded devices")
		m.need(regexp.MustCompile(`membership: 0 edge failovers, 0 devices re-homed, epoch [1-9]`).MatchString(out),
			"fault-free deployment mis-reported its membership")
		acc := final.FindStringSubmatch(out)
		m.need(acc != nil, "deployment printed no final accuracy")
		accs[run] = acc[1]
		m.need(accs[run] == accs[0], "rerun's final accuracy %s, first run's %s", accs[run], accs[0])
	}
}

// TestGateDrain: SIGTERM'd devices detach mid-run and exit 0, and the
// cloud drops their fleet and goes on; SIGTERM mid-run then drains the
// cloud's in-flight round, writes a final checkpoint a restarted cloud
// loads, and exits 0.
func TestGateDrain(t *testing.T) {
	dir := logDir(t)
	ckpt := filepath.Join(dir, "gsckpt")
	// Rounds enough for minutes keep the run mid-flight when the signals land.
	c, _, d := fleet(t, dir, "gs_", "-rounds", "20000", "-checkpoint-dir", ckpt)
	c.until(30*time.Second, "devices attached and a checkpoint", func() bool {
		return strings.Contains(d.text(), "attached to edge") && hasCheckpoint(ckpt)
	})
	d.need(!d.exited(), "devices exited before their SIGTERM")
	d.cmd.Process.Signal(syscall.SIGTERM)
	code := d.exit(time.Minute)
	d.need(code == 0, "SIGTERM'd devices exited %d, want 0", code)
	d.need(strings.Contains(d.text(), "detached"), "devices did not detach cleanly on SIGTERM")
	c.await(30*time.Second, "fleet dropped")
	c.cmd.Process.Signal(syscall.SIGTERM)
	c.await(30*time.Second, "shutting down gracefully")
	c.await(30*time.Second, "graceful stop after round")
	code = c.exit(time.Minute)
	c.need(code == 0, "SIGTERM'd cloud exited %d, want 0", code)
	c.need(hasCheckpoint(ckpt), "no checkpoint survived the graceful shutdown in %s", ckpt)
	c2 := cloud(t, dir, "gs_cloud2.log", "-edges", "1", "-rounds", "20000", "-checkpoint-dir", ckpt)
	c2.await(10*time.Second, "resuming from checkpoint")
}

// memb is a three-edge deployment whose devices fail over on their own:
// every -edgeaddrs entry is a candidate.
type memb struct {
	cloud, devices *proc
	edges          [3]*proc
	cloudAddr      string
	edgeAddrs      [3]string
}

// membRounds holds a memb run open for seconds (≈ 9 ms a round on 2
// CPUs), so an edge killed after round 4 dies, fails over, restarts and
// rejoins mid-run.
const membRounds = 1000

// startMemb starts cloud, edges 0..2 and devices 0..19 — the fast mnist
// partition's whole population — in groups of mux, which move with -p 0.4
// at every round boundary: round 1 waits for their attachment.
func startMemb(t *testing.T, dir, prefix, mux string) *memb {
	t.Helper()
	f := &memb{cloud: cloud(t, dir, prefix+"_cloud.log", "-edges", "3", "-rounds", strconv.Itoa(membRounds), "-lease-interval", "200ms")}
	f.cloudAddr = f.cloud.await(10*time.Second, "cloud listening on"+addrRE)
	for i := range f.edges {
		id := strconv.Itoa(i)
		f.edges[i] = edge(t, dir, prefix+"_edge"+id+".log", id, f.cloudAddr, "127.0.0.1:0")
		f.edgeAddrs[i] = f.edges[i].await(10*time.Second, "serving devices on"+addrRE)
	}
	f.devices = start(t, dir, prefix+"_devices.log", "middled", "-role", "devices", "-cloud", f.cloudAddr,
		"-edgeaddrs", strings.Join(f.edgeAddrs[:], ","), "-from", "0", "-to", "19", "-mux", mux, "-p", "0.4",
		"-metrics-addr", "127.0.0.1:0")
	return f
}

// finish waits for the run's final accuracy, printed to four digits,
// then stops the devices and edges.
func (f *memb) finish(within time.Duration) string {
	f.cloud.t.Helper()
	acc := f.cloud.await(within, `training complete \(final accuracy ([0-9.]+)`)
	f.devices.stop(syscall.SIGTERM)
	for _, e := range f.edges {
		e.stop(syscall.SIGTERM)
	}
	<-f.cloud.done
	return acc
}

// membTwin runs memb's fault-free deployment in process through
// fednet.StartCluster, with middled's defaults for the rest (task mnist,
// fast scale, seed 1, MIDDLE): the same task setup and partition, the
// devices role's ring seed (seed + first device id), K, T_c and rounds. A
// device's minibatch stream depends on the partition's device count
// (hfl.BatchStream), so the twin needs memb to host the whole partition,
// as StartCluster does. It returns the final accuracy as middled prints it.
func membTwin(t *testing.T) string {
	const seed = 1
	setup := experiments.NewTaskSetup(data.TaskName("mnist"), experiments.Scale("fast"), seed)
	part := setup.Partition(seed)
	strat, err := middle.StrategyByName("MIDDLE")
	if err != nil {
		t.Fatal(err)
	}
	c, err := fednet.StartCluster(fednet.ClusterConfig{
		Rounds: membRounds, K: 2, LocalSteps: setup.I, BatchSize: setup.BatchSize, CloudInterval: 2,
		Strategy: strat, Partition: part,
		Factory: setup.Factory, Optimizer: setup.Optimizer, Mobility: mobility.NewMarkovRing(3, part.NumDevices(), 0.4, seed),
		Seed: seed, LeaseInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%.4f", setup.Accuracy(seed, c.GlobalModel()))
}

// TestGateFailover is the membership acceptance gate on real processes,
// at -mux 1 and 2: SIGKILL one of three edges mid-run. The lease
// detector declares it dead, its devices fail over to survivors and time
// it in fednet_failover_seconds (the default SLO's failover_latency
// input), the restarted edge rejoins under a bumped epoch, the stranded
// gauge returns to 0, and the run ends within 0.05 accuracy of a
// fault-free baseline. The baseline moves its devices at round
// boundaries, so it is one model per seed: three runs print the same
// digits, and so does fednet.StartCluster on the same deployment.
func TestGateFailover(t *testing.T) {
	dir := logDir(t)
	var runs [3]string
	for i := range runs {
		base := startMemb(t, dir, "base"+strconv.Itoa(i), "1")
		runs[i] = base.finish(120 * time.Second)
		base.cloud.need(runs[i] == runs[0], "fault-free run %d printed final accuracy %s, run 0 %s", i, runs[i], runs[0])
	}
	if twin := membTwin(t); twin != runs[0] {
		t.Fatalf("fednet.StartCluster on the baseline's deployment reached %s, middled %s", twin, runs[0])
	}
	base, _ := strconv.ParseFloat(runs[0], 64)
	for _, mux := range []string{"1", "2"} {
		t.Run("mux"+mux, func(t *testing.T) {
			f := startMemb(t, dir, "chaos"+mux, mux)
			f.devices.await(30*time.Second, "attached to edge")
			f.cloud.await(120*time.Second, "round 4 synced")
			f.edges[1].stop(syscall.SIGKILL)
			f.cloud.await(30*time.Second, "edge 1 declared dead")
			f.devices.await(30*time.Second, "failed over from edge 1")
			// The restarted edge keeps its address and id: a rejoin.
			f.edges[1] = edge(t, dir, "chaos"+mux+"_edge1b.log", "1", f.cloudAddr, f.edgeAddrs[1])
			f.cloud.await(60*time.Second, "edge 1 rejoined at epoch")
			addr := f.devices.await(10*time.Second, "metrics listening on"+addrRE)
			stranded := regexp.MustCompile(`(?m)^fednet_stranded_devices 0$`)
			f.devices.until(30*time.Second, "fednet_stranded_devices 0 on the devices' /metrics after the rejoin", func() bool {
				return stranded.MatchString(get(addr + "/metrics"))
			})
			timed := regexp.MustCompile(`(?m)^fednet_failover_seconds_count [1-9][0-9]*$`)
			f.devices.need(timed.MatchString(get(addr+"/metrics")),
				"-mux %s: no fednet_failover_seconds_count >= 1 on the devices' /metrics after the failover", mux)
			chaos, _ := strconv.ParseFloat(f.finish(180*time.Second), 64)
			t.Logf("failover chaos (-mux %s): baseline acc %.4f, chaos acc %.4f", mux, base, chaos)
			// Two survivors stay up, so no device may exhaust its candidates.
			f.devices.need(!strings.Contains(f.devices.text(), "no failover candidate reachable"),
				"-mux %s: a device exhausted all failover candidates during the outage", mux)
			f.cloud.need(chaos >= base-0.05, "-mux %s: chaos accuracy %.4f fell more than 0.05 below baseline %.4f", mux, chaos, base)
		})
	}
}
