package obs

import (
	"strings"
	"testing"
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
