package parallel

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/fault"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/stats"
)

// refSpawn is the goroutine worker the virtual-time drivers ran before
// the callback worker replaced it, loop body kept verbatim: one
// process per node blocking in Recv, HoldBusy and Hold. It is the
// oracle the callback state machine is compared against — same
// archive, same Result, same protocol log, same trace-event sequence —
// in the refArchive/refPopulation tradition.
func refSpawn(w *worker) {
	node, terms, wRng := w.node, w.terms, w.rng
	straggler := w.straggler != 1
	w.eng.Go(fmt.Sprintf("worker%d", node.Rank()), func(p *des.Process) {
		for {
			msg := node.Recv(p)
			if msg.Tag == tagStop {
				return
			}
			item := msg.Payload.(*master.Item)
			epoch := node.Epoch()
			core.EvaluateSolution(w.problem, item.S)
			tf := w.tf.Sample(wRng)
			if straggler {
				tf *= w.straggler
			}
			terms.Evaluated(w.id(), item, tf)
			node.HoldBusy(p, tf, "eval")
			if node.Failed() || node.Epoch() != epoch {
				continue // crashed mid-evaluation: the work is lost
			}
			if until := node.SuspendedUntil(); until > p.Now() {
				p.Hold(until - p.Now()) // hang delays the response
			}
			node.Send(w.master, tagResult, item)
		}
	})
}

// oracleRun is everything observable about one virtual-time run.
type oracleRun struct {
	res   *Result
	arch  []byte
	log   []byte
	trace []string
	sends int
}

func runOracle(t testing.TB, run runner, cfg Config, spawn func(*worker)) oracleRun {
	t.Helper()
	var out oracleRun
	cfg.spawn = spawn
	cfg.Protocol = master.NewLog()
	cfg.Events = func(ev des.TraceEvent) {
		if ev.Kind == "send" {
			out.sends++
		}
		out.trace = append(out.trace, traceLine(ev))
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveArchive(&buf, res.Final.Archive()); err != nil {
		t.Fatal(err)
	}
	out.res, out.arch, out.log = res, buf.Bytes(), cfg.Protocol.CanonicalBytes()
	return out
}

// traceLine renders one trace event with its timestamp at full
// precision, so equal traces mean bit-equal virtual times.
func traceLine(ev des.TraceEvent) string {
	return fmt.Sprintf("%.17g %s %s %s", ev.At, ev.Actor, ev.Kind, ev.Detail)
}

// diffTrace reports the first position where two trace sequences part.
func diffTrace(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("event %d: callback %q, reference %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d events vs reference %d", len(got), len(want))
	}
	return ""
}

// checkEquivalent runs cfg under the callback worker and under the
// reference and demands identical observables.
func checkEquivalent(t testing.TB, run runner, cfg Config) oracleRun {
	t.Helper()
	got := runOracle(t, run, cfg, nil)
	want := runOracle(t, run, cfg, refSpawn)
	if d := diffTrace(got.trace, want.trace); d != "" {
		t.Fatalf("trace sequences differ at %s", d)
	}
	if got.sends != want.sends {
		t.Fatalf("messages sent: %d vs reference %d", got.sends, want.sends)
	}
	if !bytes.Equal(got.log, want.log) {
		t.Fatal("protocol logs differ canonically")
	}
	if !bytes.Equal(got.arch, want.arch) {
		t.Fatal("final archives differ")
	}
	g, w := *got.res, *want.res
	g.Final, w.Final = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("results differ:\ncallback  %+v\nreference %+v", g, w)
	}
	return got
}

// oraclePlans are the fault and timing regimes the oracle covers; each
// mutates a fault-free base config.
var oraclePlans = []struct {
	name  string
	apply func(*Config)
}{
	{"clean", func(*Config) {}},
	{"crash-recover", func(c *Config) { c.Fault = fault.FailedFractionPlan(0.1, 0.01, 42) }},
	{"crash-stop", func(c *Config) {
		c.Fault = &fault.Plan{Seed: 5, Rules: []fault.Rule{{
			Fraction: 0.3, Model: fault.CrashStop{At: stats.NewExponential(1 / 0.05)},
		}}}
	}},
	{"all-dead", func(c *Config) {
		// Every worker dies for good early on: the async run cannot
		// finish and ends with its master parked.
		c.Fault = &fault.Plan{Seed: 6, Rules: []fault.Rule{{
			Fraction: 1, Model: fault.CrashStop{At: stats.NewExponential(1 / 0.02)},
		}}}
	}},
	{"hang", func(c *Config) {
		c.Fault = &fault.Plan{Seed: 9, Rules: []fault.Rule{{
			Fraction: 0.5,
			Model: fault.TransientHang{
				Every:    stats.NewExponential(1 / 0.02),
				Duration: stats.NewExponential(1 / 0.004),
			},
		}}}
	}},
	{"message-loss", func(c *Config) { c.Fault = &fault.Plan{MessageLoss: 0.02, Seed: 3} }},
	{"stragglers", func(c *Config) { c.StragglerFraction, c.StragglerFactor = 0.25, 4 }},
	{"lease-expiry", func(c *Config) {
		// Stragglers far slower than the lease: every one of their
		// evaluations expires, is resubmitted and comes back late as a
		// duplicate.
		c.StragglerFraction, c.StragglerFactor = 0.2, 30
		c.LeaseTimeout, c.BarrierTimeout = 0.005, 0.005
	}},
	{"everything", func(c *Config) {
		c.Fault = fault.FailedFractionPlan(0.05, 0.01, 11)
		c.Fault.MessageLoss = 0.01
		c.Fault.Rules = append(c.Fault.Rules, fault.Rule{
			Ranks: []int{2, 3},
			Model: fault.TransientHang{
				Every:    stats.NewExponential(1 / 0.03),
				Duration: stats.NewConstant(0.003),
			},
		})
		c.StragglerFraction, c.StragglerFactor = 0.1, 3
	}},
}

// oracleTF are the evaluation-time regimes: constant T_F makes whole
// rounds of results tie in virtual time, so the order rests on event
// sequence numbers alone; Gamma is the paper's controlled delay.
var oracleTF = []struct {
	name string
	dist stats.Distribution
}{
	{"constant", stats.NewConstant(0.001)},
	{"gamma", stats.GammaFromMeanCV(0.001, 0.1)},
}

func TestWorkerEquivalence(t *testing.T) {
	faults := 0
	for _, plan := range oraclePlans {
		for _, tf := range oracleTF {
			for _, mode := range []string{"async", "sync"} {
				t.Run(plan.name+"/"+tf.name+"/"+mode, func(t *testing.T) {
					cfg := testConfig(12, 1500)
					cfg.TF = tf.dist
					cfg.CaptureTimings = true
					plan.apply(&cfg)
					run := RunAsync
					if mode == "sync" {
						run = RunSync
					}
					got := checkEquivalent(t, run, cfg)
					r := got.res
					faults += int(r.WorkerCrashes + r.HangsInjected + r.MessagesLost + r.Resubmissions)
					t.Logf("crashes=%d recoveries=%d hangs=%d msglost=%d resub=%d lost=%d dup=%d completed=%v",
						r.WorkerCrashes, r.WorkerRecoveries, r.HangsInjected, r.MessagesLost,
						r.Resubmissions, r.LostEvaluations, r.DuplicateResults, r.Completed)
					if plan.name == "lease-expiry" && (r.Resubmissions == 0 || r.DuplicateResults == 0) {
						t.Fatalf("plan exercised no lease expiry: %+v", *r)
					}
				})
			}
		}
	}
	if faults == 0 {
		t.Fatal("no fault plan injected anything")
	}
}

// TestWorkerEquivalenceIslands is the same oracle for RunIslands, which
// shares the worker: per-island archives, logs and migrant streams, the
// merged result and the trace sequence must match the goroutine
// reference with migration on and off.
func TestWorkerEquivalenceIslands(t *testing.T) {
	type out struct {
		res   *IslandsResult
		archs [][]byte
		logs  [][]byte
		migs  [][]byte
		trace []string
	}
	run := func(t *testing.T, tf stats.Distribution, every uint64, spawn func(*worker)) out {
		var o out
		const k = 3
		cfg := IslandsConfig{Base: islandBase(5, 600), Islands: k, MigrationEvery: every}
		cfg.Base.TF = tf
		cfg.Base.CaptureTimings = true
		cfg.Base.spawn = spawn
		cfg.Base.Events = func(ev des.TraceEvent) { o.trace = append(o.trace, traceLine(ev)) }
		for i := 0; i < k; i++ {
			cfg.Logs = append(cfg.Logs, master.NewLog())
			cfg.MigrantLogs = append(cfg.MigrantLogs, federation.NewMigrantLog())
		}
		res, err := RunIslands(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			var buf bytes.Buffer
			if err := core.SaveArchive(&buf, res.Islands[i].Archive()); err != nil {
				t.Fatal(err)
			}
			o.archs = append(o.archs, buf.Bytes())
			o.logs = append(o.logs, cfg.Logs[i].CanonicalBytes())
			buf = bytes.Buffer{}
			if _, err := cfg.MigrantLogs[i].WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			o.migs = append(o.migs, buf.Bytes())
		}
		o.res = res
		return o
	}
	for _, tf := range oracleTF {
		for _, every := range []uint64{0, 100} {
			t.Run(fmt.Sprintf("%s/migrate%d", tf.name, every), func(t *testing.T) {
				got, want := run(t, tf.dist, every, nil), run(t, tf.dist, every, refSpawn)
				if d := diffTrace(got.trace, want.trace); d != "" {
					t.Fatalf("trace sequences differ at %s", d)
				}
				if !reflect.DeepEqual(got.archs, want.archs) || !reflect.DeepEqual(got.logs, want.logs) ||
					!reflect.DeepEqual(got.migs, want.migs) {
					t.Fatal("island archives, protocol logs or migrant logs differ")
				}
				g, w := *got.res, *want.res
				g.Islands, w.Islands = nil, nil
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("results differ:\ncallback  %+v\nreference %+v", g, w)
				}
				if every > 0 && g.Migrants == 0 {
					t.Fatal("migration never happened")
				}
			})
		}
	}
}

// FuzzWorkerEquivalence drives the oracle from fuzzed (seed, P, fault
// plan, T_F kind, driver) tuples.
func FuzzWorkerEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(9), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(99), uint8(0), uint8(6), uint8(0), uint8(2))
	f.Add(uint64(3), uint8(14), uint8(7), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, p, plan, tfKind, mode uint8) {
		cfg := testConfig(4+int(p%13), 300) // the "everything" plan names ranks 2 and 3
		cfg.Seed = seed
		cfg.TF = oracleTF[int(tfKind)%len(oracleTF)].dist
		cfg.CaptureTimings = true
		oraclePlans[int(plan)%len(oraclePlans)].apply(&cfg)
		if cfg.Fault != nil {
			cfg.Fault.Seed ^= seed
		}
		run := RunAsync
		if mode%2 == 1 {
			run = RunSync
		}
		checkEquivalent(t, run, cfg)
	})
}

// TestVirtualRunGoroutinesConstant: with callback workers a P = 1024
// run keeps a fixed handful of goroutines — the caller's and the
// master's — instead of one per node, and leaves none behind.
func TestVirtualRunGoroutinesConstant(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := testConfig(1024, 20000)
	cfg.TF = stats.GammaFromMeanCV(0.01, 0.1)
	var during []int
	cfg.Quality = obs.NewQualitySampler(obs.QualityConfig{Every: 2000, OnSample: func(obs.QualitySample) {
		during = append(during, runtime.NumGoroutine())
	}})
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	if len(during) != 10 {
		t.Fatalf("took %d samples, want 10", len(during))
	}
	for _, n := range during {
		if n != during[0] || n > base+1 {
			t.Fatalf("goroutines during the run %v, want constant at most %d (caller's %d + master)", during, base+1, base)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
