package cli

import (
	"flag"
	"log/slog"
	"time"

	"borgmoea/internal/obs"
)

// Profiling is the -profile-dir/-profile-every/-profile-keep flag
// block of the long-running binaries (borgd, borgsvc): a continuous
// pprof snapshot ring served under /debug/profiles/.
type Profiling struct {
	dir   *string
	every *time.Duration
	keep  *int
}

// ProfileFlags registers the block; served ends -profile-dir's help.
func ProfileFlags(served string) Profiling {
	return Profiling{
		flag.String("profile-dir", "", "continuously capture pprof CPU+heap snapshots into this directory"+served),
		flag.Duration("profile-every", 30*time.Second, "interval between -profile-dir capture epochs"),
		flag.Int("profile-keep", 8, "capture epochs retained in the -profile-dir ring"),
	}
}

// Start runs the ring if -profile-dir was given. It returns the debug
// options that serve the ring (none without it) and the ring's stop.
func (p Profiling) Start(logger *slog.Logger) ([]obs.DebugOption, func(), error) {
	if *p.dir == "" {
		return nil, func() {}, nil
	}
	prof, err := obs.StartProfiler(obs.ProfileConfig{Dir: *p.dir, Every: *p.every, Keep: *p.keep, Logf: obs.Logf(logger)})
	if err != nil {
		return nil, nil, err
	}
	logger.Info("continuous profiling", "dir", *p.dir, "every", p.every.String(), "keep", *p.keep)
	return []obs.DebugOption{obs.WithHandler("/debug/profiles/", prof.Handler())}, prof.Close, nil
}
