package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	var worker, gateway metrics.Registry // two components through the one Add
	worker.Counter("requests").Add(7)
	worker.Histogram("rtt").Observe(int64(3 * time.Millisecond))
	gateway.Gauge("serve.queue_depth").Set(2)
	gateway.ValueHistogram("serve.batch_size").Observe(16)
	tr := trace.New("test", 16)
	root := tr.Record(trace.Context{}, "infer", "", "", time.Now(), time.Millisecond)
	tr.Record(root, "network", "", "", time.Now(), 500*time.Microsecond)

	s := New()
	s.HealthFunc(func() (bool, any) { return true, map[string]int{"peers": 2} })
	s.Add(&worker, &gateway)
	s.TracerFunc(func() *trace.Tracer { return tr })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz code %d: %s", code, body)
	}
	var health struct {
		Status string         `json:"status"`
		Detail map[string]int `json:"detail"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Detail["peers"] != 2 {
		t.Fatalf("/healthz = %+v", health)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code %d", code)
	}
	for _, want := range []string{
		"teamnet_requests_total 7", "teamnet_rtt_seconds_count 1",
		"teamnet_serve_queue_depth 2", "teamnet_serve_batch_size_sum 16",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces code %d", code)
	}
	var traces []struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || len(traces[0].Spans) != 2 {
		t.Fatalf("/traces = %+v", traces)
	}
	if traces[0].Spans[0].Name != "infer" {
		t.Fatalf("first span %q", traces[0].Spans[0].Name)
	}

	// Select by id, and reject a malformed one.
	code, _ = get(t, base+"/traces?id="+traces[0].TraceID)
	if code != http.StatusOK {
		t.Fatalf("/traces?id code %d", code)
	}
	code, _ = get(t, base+"/traces?id=zzz")
	if code != http.StatusBadRequest {
		t.Fatalf("bad trace id accepted: code %d", code)
	}

	// pprof is mounted.
	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline code %d", code)
	}
}

// TestAdminJSONFunc pins the extension-route hook: a registered path
// renders fn()'s live result as JSON on every request.
func TestAdminJSONFunc(t *testing.T) {
	s := New()
	calls := 0
	s.JSONFunc("/splitplan", func() any {
		calls++
		return map[string]int{"calls": calls}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr

	for want := 1; want <= 2; want++ {
		code, body := get(t, base+"/splitplan")
		if code != http.StatusOK {
			t.Fatalf("/splitplan code %d", code)
		}
		var got struct {
			Calls int `json:"calls"`
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("/splitplan not JSON: %v\n%s", err, body)
		}
		if got.Calls != want {
			t.Fatalf("/splitplan call %d returned %d — view is not live", want, got.Calls)
		}
	}
}

func TestAdminHealthDegraded(t *testing.T) {
	s := New()
	s.HealthFunc(func() (bool, any) { return false, "peer quarantined" })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, fmt.Sprintf("http://%s/healthz", addr))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz code %d", code)
	}
	if !strings.Contains(body, "degraded") {
		t.Fatalf("degraded /healthz body %s", body)
	}
}

func TestAdminEmptySources(t *testing.T) {
	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("empty /healthz code %d", code)
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("empty /metrics code %d", code)
	}
	code, body := get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("empty /traces code %d", code)
	}
	var traces []any
	if err := json.Unmarshal([]byte(body), &traces); err != nil || len(traces) != 0 {
		t.Fatalf("empty /traces = %q (err %v)", body, err)
	}
}

// TestAdminGoRuntimeSeries: every /metrics page — with no registry at all —
// ends with the process's three collector series, read live: after the
// process allocates and collects, heap bytes and GC cycles have grown and
// the GC CPU estimate has not shrunk.
func TestAdminGoRuntimeSeries(t *testing.T) {
	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scrape := func() map[string]float64 {
		code, body := get(t, "http://"+addr+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics code %d", code)
		}
		got := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			name, value, _ := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("/metrics line %q: %v", line, err)
			}
			got[name] = v
		}
		return got
	}
	names := []string{"teamnet_go_gc_cycles_total", "teamnet_go_gc_cpu_seconds_total", "teamnet_go_heap_allocs_bytes_total"}
	before := scrape()
	garbage = make([]byte, 1<<20)
	runtime.GC()
	after := scrape()
	for _, name := range names {
		if _, ok := after[name]; !ok || len(after) != len(names) {
			t.Fatalf("/metrics of an admin server with no registries = %v, want exactly %v", after, names)
		}
	}
	if after["teamnet_go_heap_allocs_bytes_total"]-before["teamnet_go_heap_allocs_bytes_total"] < 1<<20 {
		t.Fatalf("heap allocs %v → %v across a 1 MiB allocation", before["teamnet_go_heap_allocs_bytes_total"], after["teamnet_go_heap_allocs_bytes_total"])
	}
	if after["teamnet_go_gc_cycles_total"] <= before["teamnet_go_gc_cycles_total"] {
		t.Fatalf("gc cycles %v → %v across runtime.GC", before["teamnet_go_gc_cycles_total"], after["teamnet_go_gc_cycles_total"])
	}
	if after["teamnet_go_gc_cpu_seconds_total"] < before["teamnet_go_gc_cpu_seconds_total"] {
		t.Fatalf("gc cpu seconds went back: %v → %v", before["teamnet_go_gc_cpu_seconds_total"], after["teamnet_go_gc_cpu_seconds_total"])
	}
}

var garbage []byte
