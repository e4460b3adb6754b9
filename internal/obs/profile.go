package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Continuous profiling: a background loop that captures periodic
// pprof CPU and heap snapshots into a bounded on-disk ring, one pair
// of files per capture epoch. The epoch counter keys the snapshots to
// the run's trace timeline — borgview trace output and the /debug/profiles/
// listing both report epochs, so a latency regression seen in a trace
// window points at the profile captured during it.

// ProfileConfig configures StartProfiler.
type ProfileConfig struct {
	Dir    string        // snapshot directory (created if missing)
	Every  time.Duration // capture period (default 30s)
	CPU    time.Duration // CPU-profile window per capture (default 5s, capped at Every/2)
	Keep   int           // epochs retained on disk (default 8)
	Logf   func(format string, args ...any)
	Labels map[string]string // extra fields in the /debug/profiles/ index
}

// Profiler runs the capture loop. Close stops it and waits for the
// in-flight capture to finish.
type Profiler struct {
	cfg   ProfileConfig
	epoch atomic.Uint64
	stop  chan struct{}
	done  chan struct{}
}

// StartProfiler begins continuous profiling into cfg.Dir.
func StartProfiler(cfg ProfileConfig) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: profiler needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: creating profile dir: %w", err)
	}
	if cfg.Every <= 0 {
		cfg.Every = 30 * time.Second
	}
	if cfg.CPU <= 0 {
		cfg.CPU = 5 * time.Second
	}
	if cfg.CPU > cfg.Every/2 {
		cfg.CPU = cfg.Every / 2
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 8
	}
	p := &Profiler{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p, nil
}

// Epoch returns the current capture epoch (0 before the first).
func (p *Profiler) Epoch() uint64 {
	if p == nil {
		return 0
	}
	return p.epoch.Load()
}

// Close stops the capture loop.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
}

func (p *Profiler) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

func (p *Profiler) loop() {
	defer close(p.done)
	tick := time.NewTicker(p.cfg.Every)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			p.capture()
		}
	}
}

func (p *Profiler) capture() {
	epoch := p.epoch.Add(1)
	if err := p.captureCPU(epoch); err != nil {
		p.logf("obs: cpu profile epoch %d: %v", epoch, err)
	}
	if err := p.captureHeap(epoch); err != nil {
		p.logf("obs: heap profile epoch %d: %v", epoch, err)
	}
	p.prune(epoch)
}

func profileName(kind string, epoch uint64) string {
	return fmt.Sprintf("%s-%08d.pprof", kind, epoch)
}

func (p *Profiler) captureCPU(epoch uint64) error {
	f, err := os.Create(filepath.Join(p.cfg.Dir, profileName("cpu", epoch)))
	if err != nil {
		return err
	}
	defer f.Close()
	// Another collector (e.g. /debug/pprof/profile) may hold the CPU
	// profiler; skip the window rather than fail the loop.
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	select {
	case <-time.After(p.cfg.CPU):
	case <-p.stop: // keep the partial window on shutdown
	}
	pprof.StopCPUProfile()
	return nil
}

func (p *Profiler) captureHeap(epoch uint64) error {
	f, err := os.Create(filepath.Join(p.cfg.Dir, profileName("heap", epoch)))
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

// prune deletes snapshots older than the retention ring.
func (p *Profiler) prune(epoch uint64) {
	if epoch <= uint64(p.cfg.Keep) {
		return
	}
	floor := epoch - uint64(p.cfg.Keep)
	for _, kind := range []string{"cpu", "heap"} {
		for e := floor; e > 0; e-- {
			path := filepath.Join(p.cfg.Dir, profileName(kind, e))
			if err := os.Remove(path); err != nil {
				break // past the contiguous tail: nothing older remains
			}
		}
	}
}

// profileEntry is one row of the /debug/profiles/ index.
type profileEntry struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Epoch uint64 `json:"epoch"`
	Bytes int64  `json:"bytes"`
}

// parseProfileName splits "cpu-00000042.pprof" into its kind and
// epoch; ok is false for anything else.
func parseProfileName(name string) (kind string, epoch uint64, ok bool) {
	rest, found := strings.CutSuffix(name, ".pprof")
	if !found {
		return "", 0, false
	}
	kind, num, found := strings.Cut(rest, "-")
	if !found || (kind != "cpu" && kind != "heap") {
		return "", 0, false
	}
	for _, c := range num {
		if c < '0' || c > '9' {
			return "", 0, false
		}
		epoch = epoch*10 + uint64(c-'0')
	}
	return kind, epoch, num != ""
}

// Handler serves the ring: the index as JSON at the mount root, the
// raw pprof files beneath it (go tool pprof can fetch them directly).
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Path
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:] // mounted under /debug/profiles/
		}
		if name != "" {
			if _, _, ok := parseProfileName(name); !ok {
				http.NotFound(w, r)
				return
			}
			http.ServeFile(w, r, filepath.Join(p.cfg.Dir, name))
			return
		}
		entries, err := os.ReadDir(p.cfg.Dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		index := struct {
			Epoch    uint64            `json:"epoch"`
			Labels   map[string]string `json:"labels,omitempty"`
			Profiles []profileEntry    `json:"profiles"`
		}{Epoch: p.Epoch(), Labels: p.cfg.Labels, Profiles: []profileEntry{}}
		for _, e := range entries {
			kind, epoch, ok := parseProfileName(e.Name())
			if !ok {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			index.Profiles = append(index.Profiles, profileEntry{
				Name: e.Name(), Kind: kind, Epoch: epoch, Bytes: info.Size(),
			})
		}
		sort.Slice(index.Profiles, func(i, j int) bool {
			a, b := index.Profiles[i], index.Profiles[j]
			if a.Epoch != b.Epoch {
				return a.Epoch < b.Epoch
			}
			return a.Kind < b.Kind
		})
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(index)
	})
}
