package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wire.frames_sent").Add(7)
	reg.Gauge("master.workers_live").Set(3)
	h := reg.Histogram("master.tf_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100) // overflow bucket

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE wire_frames_sent counter",
		"wire_frames_sent 7",
		"# TYPE master_workers_live gauge",
		"master_workers_live 3",
		"# TYPE master_tf_seconds histogram",
		`master_tf_seconds_bucket{le="0.1"} 1`,
		`master_tf_seconds_bucket{le="1"} 2`,
		`master_tf_seconds_bucket{le="10"} 2`,
		`master_tf_seconds_bucket{le="+Inf"} 3`,
		"master_tf_seconds_sum 100.55",
		"master_tf_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket counts must be cumulative and every line's metric name
	// must be exposition-safe (dots sanitized to underscores).
	if strings.Contains(out, "master.tf") {
		t.Errorf("unsanitized metric name in exposition:\n%s", out)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var sb strings.Builder
	if err := (*Registry)(nil).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}

func TestDebugServerPrometheusEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wire.frames_sent").Add(2)
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, fmt.Sprintf("http://%s/debug/metrics", srv.Addr()))
	if code != 200 {
		t.Fatalf("/debug/metrics = %d", code)
	}
	if !strings.Contains(string(body), "wire_frames_sent 2") {
		t.Fatalf("/debug/metrics body:\n%s", body)
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
