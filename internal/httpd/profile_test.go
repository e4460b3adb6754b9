package httpd

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestProfilerRingAndHandler(t *testing.T) {
	dir := t.TempDir()
	p, err := StartProfiler(ProfileConfig{
		Dir:    dir,
		Every:  30 * time.Millisecond,
		CPU:    5 * time.Millisecond,
		Keep:   2,
		Labels: map[string]string{"role": "test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Epoch() < 3 {
		if time.Now().After(deadline) {
			p.Close()
			t.Fatalf("profiler reached epoch %d within 10s, want 3", p.Epoch())
		}
		time.Sleep(10 * time.Millisecond)
	}
	epoch := p.Epoch()

	// The index lists the retained ring and carries the labels.
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles/", nil))
	if rec.Code != 200 {
		t.Fatalf("index returned %d", rec.Code)
	}
	var index struct {
		Epoch    uint64            `json:"epoch"`
		Labels   map[string]string `json:"labels"`
		Profiles []struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Epoch uint64 `json:"epoch"`
		} `json:"profiles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &index); err != nil {
		t.Fatal(err)
	}
	if index.Epoch < 3 || index.Labels["role"] != "test" || len(index.Profiles) == 0 {
		t.Fatalf("unexpected index %+v", index)
	}

	// One raw snapshot serves as a file; junk names 404.
	rec = httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles/"+index.Profiles[0].Name, nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("snapshot %q returned %d with %d bytes", index.Profiles[0].Name, rec.Code, rec.Body.Len())
	}
	rec = httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles/../../etc/passwd", nil))
	if rec.Code != 404 {
		t.Fatalf("path traversal returned %d, want 404", rec.Code)
	}

	p.Close()

	// The ring pruned: with Keep=2 nothing older than epoch-2 remains,
	// and the newest epochs are on disk.
	for _, kind := range []string{"cpu", "heap"} {
		old := filepath.Join(dir, fmt.Sprintf("%s-%08d.pprof", kind, 1))
		if epoch > 3 {
			continue // a late capture may have raced the check; prune floor moved
		}
		if _, err := os.Stat(old); err == nil {
			t.Fatalf("epoch-1 %s snapshot survived a Keep=2 ring at epoch %d", kind, epoch)
		}
	}
	latest := filepath.Join(dir, fmt.Sprintf("heap-%08d.pprof", p.Epoch()))
	if _, err := os.Stat(latest); err != nil {
		t.Fatalf("latest heap snapshot missing: %v", err)
	}
}
