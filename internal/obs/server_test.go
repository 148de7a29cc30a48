package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("srv_rounds_total").Add(4)
	RegisterProcessMetrics(reg)
	st := NewStatus()
	st.Set("role", "cloud")
	st.Set("round", 4)

	srv, err := StartServer(ServerConfig{Addr: "127.0.0.1:0", Registry: reg, Status: st})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, body := getBody(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{"srv_rounds_total 4", "# TYPE process_goroutines gauge", "process_cpu_count "} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, body = getBody(t, base+"/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status status %d", resp.StatusCode)
	}
	var status struct {
		UptimeSeconds float64        `json:"uptime_seconds"`
		Goroutines    int            `json:"goroutines"`
		Status        map[string]any `json:"status"`
		Metrics       map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if status.Status["role"] != "cloud" || status.Status["round"] != 4.0 {
		t.Fatalf("/status board %v", status.Status)
	}
	if status.Metrics["srv_rounds_total"] != 4.0 {
		t.Fatalf("/status metrics %v", status.Metrics["srv_rounds_total"])
	}
	if status.Goroutines <= 0 || status.UptimeSeconds < 0 {
		t.Fatalf("/status process fields: %+v", status)
	}

	resp, body = getBody(t, base+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}

	resp, _ = getBody(t, base+"/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/nope status %d, want 404", resp.StatusCode)
	}
}

func TestServerDebugTrace(t *testing.T) {
	tr := NewTrace(0)
	tr.SetProcessName(0, "sim")
	tr.Complete("round", "hfl", 0, 0, tr.Now(), time.Millisecond, "r1", "", nil)

	srv, err := StartServer(ServerConfig{Addr: "127.0.0.1:0", Registry: NewRegistry(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, body := getBody(t, "http://"+srv.Addr()+"/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/trace content type %q", ct)
	}
	events, err := ReadTraceJSON(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/debug/trace not trace JSON: %v\n%s", err, body)
	}
	if len(events) != 2 || events[0].Ph != "M" || events[1].Name != "round" {
		t.Fatalf("/debug/trace events %+v", events)
	}

	// Without a Trace configured the endpoint still serves a valid
	// (empty) document.
	bare, err := StartServer(ServerConfig{Addr: "127.0.0.1:0", Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp, body = getBody(t, "http://"+bare.Addr()+"/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare /debug/trace status %d", resp.StatusCode)
	}
	if events, err := ReadTraceJSON(strings.NewReader(body)); err != nil || len(events) != 0 {
		t.Fatalf("bare /debug/trace: %v %v", events, err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	// A GaugeFunc that blocks mid-scrape until released lets us start a
	// request, call Shutdown concurrently, and check the scrape still
	// completes with a full body.
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	reg := NewRegistry()
	reg.Counter("shut_marker_total").Inc()
	reg.GaugeFunc("shut_slow_value", func() float64 {
		once.Do(func() { close(entered) })
		<-release
		return 1
	})

	srv, err := StartServer(ServerConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{body: string(b), err: err}
	}()

	<-entered // scrape is in-flight
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the handler, not kill it.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a scrape was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight scrape failed: %v", r.err)
	}
	if !strings.Contains(r.body, "shut_marker_total 1") || !strings.Contains(r.body, "shut_slow_value 1") {
		t.Fatalf("in-flight scrape body truncated:\n%s", r.body)
	}

	// New connections are refused after shutdown.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("post-shutdown request succeeded")
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sum_steps_total").Add(9)
	reg.Gauge("sum_final_acc").Set(0.8125)

	started := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	m := Manifest{
		Name:     "middlesim-test",
		Command:  []string{"middlesim", "-fig", "6"},
		Started:  started,
		Finished: started.Add(42 * time.Second),
		Extra:    map[string]any{"seed": 1.0, "strategy": "middle"},
	}
	path := SummaryPath(filepath.Join(t.TempDir(), "results"), m.Name, started)
	if !strings.HasSuffix(path, "middlesim-test-20260805T100000.json") {
		t.Fatalf("summary path %q", path)
	}
	if err := WriteSummary(path, m, reg); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Manifest Manifest       `json:"manifest"`
		Metrics  map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	got, metrics := doc.Manifest, doc.Metrics
	if got.Name != m.Name || !got.Started.Equal(m.Started) || !got.Finished.Equal(m.Finished) {
		t.Fatalf("manifest round-trip: %+v", got)
	}
	if len(got.Command) != 3 || got.Command[2] != "6" {
		t.Fatalf("command %v", got.Command)
	}
	if got.Extra["strategy"] != "middle" {
		t.Fatalf("extra %v", got.Extra)
	}
	if metrics["sum_steps_total"] != 9.0 || metrics["sum_final_acc"] != 0.8125 {
		t.Fatalf("metrics %v", metrics)
	}
}
