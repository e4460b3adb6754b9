package bench

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"borgmoea/internal/rng"
)

// Env is the machine and build a report was measured on.
type Env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the measured children
	GOGC       string `json:"gogc"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// CaptureEnv describes the current machine. The children always run
// with GOMAXPROCS=1 (see run.go), whatever the driver itself uses.
func CaptureEnv() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: 1,
		GOGC:       os.Getenv("GOGC"),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark
// (VmHWM) in MB, or 0 where /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the machine-wide (steal, total) jiffies from
// /proc/stat; zeros where it is not available.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of machine CPU time stolen by the hypervisor
// between two cpuTicks readings.
func stealPct(steal0, total0, steal1, total1 float64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * (steal1 - steal0) / (total1 - total0)
}

var calibSink uint64

// calibNs times a fixed xoshiro spin and returns ns per draw: a probe
// of how fast this vCPU is right now. The best of a few passes counts,
// so neither a cold process start nor one preemption reads as a slow
// machine. Diagnosis only — never used to normalise a metric.
func calibNs() float64 {
	const passes, draws = 4, 1_000_000
	best := math.Inf(1)
	for pass := 0; pass < passes; pass++ {
		r := rng.New(0x63616c6962) // "calib"
		start := time.Now()
		var x uint64
		for i := 0; i < draws; i++ {
			x ^= r.Uint64()
		}
		calibSink = x
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/draws)
	}
	return best
}
