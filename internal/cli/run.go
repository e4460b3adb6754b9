package cli

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"

	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
	"borgmoea/internal/shutdown"
)

// StreamEventLog makes a streaming BMEL writer to path the log's Sink,
// so the recording master holds no copy of its events: they are on
// disk at event granularity, and a signal or a crash costs at most the
// trailing partial record, which the replay reader tolerates. The hook
// it adds to flusher closes the file; the mutex covers a signal's
// flush racing the recording goroutine. Call the returned seal once the
// run has returned, before the flush: it rewrites the header with the
// event count and the log's T_P (master.SealLog), so a finished run's
// file is the one Log.WriteTo writes.
func StreamEventLog(flusher *shutdown.Flusher, logger *slog.Logger, path string, log *master.Log) (seal func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var (
		mu     sync.Mutex
		lw     *master.LogWriter
		n      uint64
		werr   error // the first error of the stream; nothing is written after it
		closed bool
	)
	log.Sink = func(ev master.Event) {
		mu.Lock()
		defer mu.Unlock()
		if closed || werr != nil {
			return
		}
		if lw == nil {
			// First event: the recording Core stamped log.Meta when it
			// was constructed, before anything could be recorded.
			if lw, werr = master.NewLogWriter(f, log.Meta); werr != nil {
				return
			}
		}
		if werr = lw.Record(ev); werr == nil {
			n++
		}
	}
	flusher.Add(func() {
		mu.Lock()
		defer mu.Unlock()
		closed = true
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			logger.Error("writing event log", "path", path, "err", werr)
		}
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if !closed && werr == nil && lw != nil {
			werr = master.SealLog(f, log.Meta, log.Elapsed, n)
		}
	}, nil
}

// ReplaySpec returns the spec a replay runs. A version-2 log names its
// run in its header, and then every run flag set on the command line
// must agree with it; a version-1 log (nil header) does not, so the run
// is flags, the spec the run flags describe, if the command has any.
func ReplaySpec(header *master.RunHeader, flags master.Spec) (master.Spec, error) {
	if header == nil && flags.Problem == "" {
		return flags, errors.New("a version-1 event log does not name its run; replay it with the run flags")
	}
	if header == nil {
		return flags, nil
	}
	h := *header.Spec
	named := map[string]string{"problem": h.Problem, "objectives": fmt.Sprint(h.Objectives),
		"evals": fmt.Sprint(h.Evaluations), "epsilon": fmt.Sprint(h.Epsilon), "seed": fmt.Sprint(h.Seed)}
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if v, ok := named[f.Name]; ok && v != f.Value.String() {
			bad = append(bad, fmt.Sprintf("-%s %s", f.Name, f.Value))
		}
	})
	if len(bad) > 0 {
		return h, fmt.Errorf("%s disagrees with the run the log header names: %+v", strings.Join(bad, ", "), h)
	}
	return h, nil
}

// IslandCount counts dir's island-<i>.<ext> files up to the first gap.
func IslandCount(dir, ext string) (k int) {
	for ; ; k++ {
		if _, err := os.Stat(IslandPath(dir, k, ext)); err != nil {
			return k
		}
	}
}

// Replay replays a recorded run — one BMEL event log, as a federation
// of one, or a federation log directory of islands 0..k-1 (k <= 0
// counts them) — as ReplaySpec resolves it, with a sampler per master
// to regenerate its quality timeline if quality is set. It returns each
// master's log path with the replay.
func Replay(path string, k int, flags master.Spec, quality bool) (paths []string, rep *federation.ReplayResult, qs []*obs.QualitySampler, err error) {
	paths = []string{path}
	if fi, statErr := os.Stat(path); statErr == nil && fi.IsDir() {
		if k <= 0 {
			k = IslandCount(path, "bmel")
		}
		paths = paths[:0]
		for i := 0; i < k; i++ {
			paths = append(paths, IslandPath(path, i, "bmel"))
		}
	}
	logs := make([]*master.Log, len(paths))
	var mlogs []*federation.MigrantLog
	for i, p := range paths {
		if logs[i], err = ReadFile(p, master.ReadLog); err == nil && p != path {
			var ml *federation.MigrantLog
			ml, err = ReadFile(IslandPath(path, i, "migrants"), federation.ReadMigrantLog)
			mlogs = append(mlogs, ml)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	if len(logs) == 0 {
		return nil, nil, nil, errors.New("no island-<i>.bmel event logs")
	}
	spec, err := ReplaySpec(logs[0].Meta.Run, flags)
	if err != nil {
		return nil, nil, nil, err
	}
	p, cfg, err := spec.Config()
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; quality && i < len(logs); i++ {
		qs = append(qs, obs.NewQualitySampler(obs.QualityConfig{Ref: metrics.RefPointFor(p.Name(), p.NumObjs())}))
	}
	rep, err = federation.ReplayQuality(p, cfg, spec.Seed, logs, mlogs, qs)
	return paths, rep, qs, err
}
