package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestDebugServer(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("wire.frames_sent").Add(7)
	reg.Histogram("master.tf_seconds", nil).Observe(0.25)

	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := fmt.Sprintf("http://%s", srv.Addr())

	if code, body := get(t, base+"/healthz"); code != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get(t, base+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if string(vars["wire.frames_sent"]) != "7" {
		t.Fatalf("frames_sent = %s, want 7", vars["wire.frames_sent"])
	}
	for _, key := range []string{"master.tf_seconds", "runtime.goroutines", "runtime.heap_alloc_bytes"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("/debug/vars missing %q", key)
		}
	}

	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("/debug/pprof/ = %d (no index)", code)
	}
}

func TestDebugServerNilRegistry(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["runtime.goroutines"]; !ok {
		t.Fatal("runtime figures missing with nil registry")
	}
}

// TestDebugServerRoutes pins the debug server's route set: the probes,
// the registry as JSON, the pprof handlers and a WithHandler mount
// answer, and nothing else is served — the registry has one format
// (/debug/vars), and profiles are taken on demand from /debug/pprof/.
func TestDebugServerRoutes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("wire.frames_sent").Add(2)
	mount := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "{}") })
	srv, err := ServeDebug("127.0.0.1:0", reg, WithHandler("/debug/scaling", mount))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := fmt.Sprintf("http://%s", srv.Addr())

	for path, want := range map[string]int{
		"/healthz":         200,
		"/readyz":          200,
		"/debug/vars":      200,
		"/debug/pprof/":    200,
		"/debug/scaling":   200,
		"/debug/metrics":   404,
		"/debug/profiles/": 404,
	} {
		if code, _ := get(t, base+path); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}
}

func TestDebugServerWithHandler(t *testing.T) {
	extra := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"hello":"scaling"}`)
	})
	srv, err := ServeDebug("127.0.0.1:0", nil, WithHandler("/debug/scaling", extra))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, fmt.Sprintf("http://%s/debug/scaling", srv.Addr()))
	if code != 200 || !strings.Contains(string(body), "scaling") {
		t.Fatalf("/debug/scaling = %d %q", code, body)
	}
	// The stock endpoints still work with options attached.
	if code, _ := get(t, fmt.Sprintf("http://%s/healthz", srv.Addr())); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
}

func TestReadinessSplitsFromLiveness(t *testing.T) {
	var reason error
	srv, err := ServeDebug("127.0.0.1:0", nil, WithReadiness(func() error { return reason }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Ready and alive.
	if code, _ := get(t, fmt.Sprintf("http://%s/readyz", srv.Addr())); code != 200 {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	// Draining: readiness fails, liveness holds.
	reason = errors.New("draining: 3 jobs finishing")
	code, body := get(t, fmt.Sprintf("http://%s/readyz", srv.Addr()))
	if code != 503 || !strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz while draining = %d %q, want 503 with reason", code, body)
	}
	if code, _ := get(t, fmt.Sprintf("http://%s/healthz", srv.Addr())); code != 200 {
		t.Fatalf("/healthz while draining = %d, want 200", code)
	}

	// Without the option, /readyz always succeeds.
	plain, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if code, _ := get(t, fmt.Sprintf("http://%s/readyz", plain.Addr())); code != 200 {
		t.Fatalf("default /readyz = %d, want 200", code)
	}
}

func TestDebugServerShutdownDrains(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The port is released: probes fail at the dial layer.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.Addr())); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}
