package httpd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/jobs"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// startWorkers launches n in-process borgd-equivalent workers dialing
// addr, with fast redial backoff. A non-nil delay slows each
// evaluation (the paper's T_F).
func startWorkers(ctx context.Context, n int, addr string, delay stats.Distribution) {
	for i := 0; i < n; i++ {
		go func(seed uint64) {
			wire.RunWorker(ctx, wire.WorkerConfig{ //nolint:errcheck // ctx cancel ends it
				Addr:       addr,
				Backoff:    20 * time.Millisecond,
				MaxBackoff: 300 * time.Millisecond,
				Delay:      delay,
				Seed:       seed,
			})
		}(uint64(i + 1))
	}
}

// obsServe mounts the scheduler's API on a loopback debug server.
func obsServe(s *jobs.Scheduler) (*DebugServer, error) {
	return ServeDebug("127.0.0.1:0", nil, JobAPI(s)...)
}

// httpDo runs one request and returns (status code, body).
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp.StatusCode, string(data)
}

func mustUnmarshal(t *testing.T, data string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(data), v); err != nil {
		t.Fatalf("unmarshal %.120q: %v", data, err)
	}
}

// TestHTTPAPI drives the full stack over loopback HTTP: submit, list,
// status, watch, result, cancel, scaling, and the readiness flip on
// shutdown.
func TestHTTPAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	s, err := jobs.New(jobs.Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := obsServe(s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 2, s.FleetAddr(), nil)

	// Bad submissions are 400s.
	if code, _ := httpDo(t, "POST", base+"/jobs", `{"problem":"NOSUCH","evaluations":10}`); code != 400 {
		t.Errorf("bad problem: HTTP %d, want 400", code)
	}
	if code, _ := httpDo(t, "POST", base+"/jobs", `{"bogus":true}`); code != 400 {
		t.Errorf("unknown field: HTTP %d, want 400", code)
	}

	code, body := httpDo(t, "POST", base+"/jobs", `{"problem":"ZDT1","evaluations":40,"population":8}`)
	if code != 201 {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	var st jobs.Status
	mustUnmarshal(t, body, &st)
	id := st.ID

	// Watch streams JSONL until the job completes.
	code, body = httpDo(t, "GET", base+"/jobs/"+id+"/watch?interval=100ms", "")
	if code != 200 {
		t.Fatalf("watch: HTTP %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var last jobs.Status
	mustUnmarshal(t, lines[len(lines)-1], &last)
	if last.State != jobs.StateDone || last.Evaluations != 40 {
		t.Fatalf("watch final state: %+v", last)
	}

	// Status includes the advisor report.
	code, body = httpDo(t, "GET", base+"/jobs/"+id, "")
	if code != 200 || !strings.Contains(body, "\"advisor\"") {
		t.Errorf("status: HTTP %d, advisor present=%v", code, strings.Contains(body, "\"advisor\""))
	}
	if code, _ := httpDo(t, "GET", base+"/jobs/nope", ""); code != 404 {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}

	// The result endpoint serves loadable archive JSON.
	code, body = httpDo(t, "GET", base+"/jobs/"+id+"/result", "")
	if code != 200 {
		t.Fatalf("result: HTTP %d", code)
	}
	arch, err := core.LoadArchive(strings.NewReader(body), 0)
	if err != nil {
		t.Fatalf("result not a loadable archive: %v", err)
	}
	if arch.Size() == 0 {
		t.Error("result archive empty")
	}

	// Per-job scaling report, in the single-run schema.
	code, body = httpDo(t, "GET", base+"/debug/scaling?job="+id, "")
	if code != 200 || !strings.Contains(body, "predicted") {
		t.Errorf("scaling?job: HTTP %d body %.80s", code, body)
	}
	code, body = httpDo(t, "GET", base+"/debug/scaling", "")
	if code != 200 || !strings.Contains(body, id) {
		t.Errorf("scaling map: HTTP %d", code)
	}

	// Cancel a fresh job over HTTP.
	code, body = httpDo(t, "POST", base+"/jobs", `{"problem":"ZDT1","evaluations":100000,"population":8,"seed":9}`)
	if code != 201 {
		t.Fatalf("second submit: HTTP %d", code)
	}
	var st2 jobs.Status
	mustUnmarshal(t, body, &st2)
	if code, _ = httpDo(t, "DELETE", base+"/jobs/"+st2.ID, ""); code != 200 {
		t.Errorf("cancel: HTTP %d", code)
	}

	// Liveness stays green while readiness flips on drain.
	if code, _ := httpDo(t, "GET", base+"/readyz", ""); code != 200 {
		t.Fatalf("readyz before drain: HTTP %d", code)
	}
	s.Close()
	if code, _ := httpDo(t, "GET", base+"/readyz", ""); code != 503 {
		t.Errorf("readyz after close: HTTP %d, want 503", code)
	}
	if code, _ := httpDo(t, "GET", base+"/healthz", ""); code != 200 {
		t.Errorf("healthz after close: HTTP %d, want 200", code)
	}
	if code, _ := httpDo(t, "POST", base+"/jobs", `{"problem":"ZDT1","evaluations":10}`); code != 503 {
		t.Errorf("submit after close: HTTP %d, want 503", code)
	}
}
