// Package cmd_test drives the six binaries end to end, the way
// .claude/skills/verify/SKILL.md's recipes do by hand: build once,
// record → replay → cmp, render the recorded artefacts, run each
// experiment at toy size, and check every bad-input exit status.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var binaries = []string{"borg", "borgd", "borgexp", "borgq", "borgsvc", "borgview"}

// TestCmdHoldsExactlyTheSixBinaries keeps the merged tools merged: a
// new directory under cmd/ is a new binary to document, test and keep
// in step with the others, and should be a subcommand or a flag
// instead (a federation is borg -islands k).
func TestCmdHoldsExactlyTheSixBinaries(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "testdata" {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	if strings.Join(dirs, " ") != strings.Join(binaries, " ") {
		t.Fatalf("cmd/ holds %v, want exactly %v", dirs, binaries)
	}
}

// tools is the built binaries plus a scratch directory commands run in.
type tools struct {
	t        *testing.T
	bin, dir string
}

func build(t *testing.T) *tools {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped under -short")
	}
	// The test cache keys on the files this process touches, not on what
	// the go build below reads: list the module's directories so that an
	// edit to any source file reruns the scripts.
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != ".." {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return &tools{t: t, bin: bin, dir: t.TempDir()}
}

// run executes a binary in the scratch directory and returns its exit
// status, stdout and stderr.
func (tl *tools) run(stdin string, name string, args ...string) (int, string, string) {
	tl.t.Helper()
	cmd := exec.Command(filepath.Join(tl.bin, name), args...)
	cmd.Dir = tl.dir
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		tl.t.Fatalf("%s %v: %v", name, args, err)
	}
	return code, stdout.String(), stderr.String()
}

// ok runs a command that must exit 0 and print something; it returns
// stdout.
func (tl *tools) ok(name string, args ...string) string {
	tl.t.Helper()
	code, stdout, stderr := tl.run("", name, args...)
	if code != 0 {
		tl.t.Fatalf("%s %v: exit %d\n%s", name, args, code, stderr)
	}
	if strings.TrimSpace(stdout) == "" {
		tl.t.Fatalf("%s %v: empty report", name, args)
	}
	return stdout
}

// start launches a binary in the background in the scratch directory;
// it is killed at the end of the test if it has not exited by then.
func (tl *tools) start(name string, args ...string) *exec.Cmd {
	tl.t.Helper()
	cmd := exec.Command(filepath.Join(tl.bin, name), args...)
	cmd.Dir = tl.dir
	if err := cmd.Start(); err != nil {
		tl.t.Fatalf("%s %v: %v", name, args, err)
	}
	tl.t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// same asserts two files are byte-identical and non-empty; relative
// names are in the scratch directory.
func (tl *tools) same(a, b string) {
	tl.t.Helper()
	read := func(name string) []byte {
		if !filepath.IsAbs(name) {
			name = filepath.Join(tl.dir, name)
		}
		data, err := os.ReadFile(name)
		if err != nil {
			tl.t.Fatal(err)
		}
		return data
	}
	da, db := read(a), read(b)
	if len(da) == 0 || !bytes.Equal(da, db) {
		tl.t.Fatalf("%s (%d bytes) and %s (%d bytes) differ", a, len(da), b, len(db))
	}
}

// chromeTF asserts name is a Chrome trace_event document holding at
// least one tf span, whose process names repeat no word.
func (tl *tools) chromeTF(name string) {
	tl.t.Helper()
	data, err := os.ReadFile(filepath.Join(tl.dir, name))
	if err != nil {
		tl.t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		tl.t.Fatalf("%s: %v", name, err)
	}
	tf := false
	for _, ev := range doc.TraceEvents {
		tf = tf || ev.Name == "tf"
		if ev.Name != "process_name" {
			continue
		}
		seen := map[string]bool{}
		for _, w := range strings.Fields(ev.Args.Name) {
			if seen[w] {
				tl.t.Fatalf("%s: process name %q repeats %q", name, ev.Args.Name, w)
			}
			seen[w] = true
		}
	}
	if !tf {
		tl.t.Fatalf("%s: %d trace events, no tf span", name, len(doc.TraceEvents))
	}
}

// freeAddr returns a loopback address nothing is listening on.
func freeAddr(t *testing.T) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// testdata returns the absolute path of a file in cmd/testdata.
func testdata(t *testing.T, name string) string {
	p, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScripts(t *testing.T) {
	tl := build(t)
	problem := []string{"-problem", "DTLZ2", "-objectives", "3"}
	with := func(args ...string) []string { return append(append([]string{}, problem...), args...) }

	t.Run("borg record replay", func(t *testing.T) {
		tl.t = t
		// The serial run records nothing to replay; its invariant is that
		// the same seed gives the same archive.
		tl.ok("borg", with("-evals", "1500", "-out", "serial.a.json")...)
		tl.ok("borg", with("-evals", "1500", "-out", "serial.b.json")...)
		tl.same("serial.a.json", "serial.b.json")

		// The virtual master charges counted work, not the wall clock, so
		// the same seed records the same event log, virtual times included.
		for _, v := range []string{"v", "v2"} {
			out := tl.ok("borg", with("-parallel", "8", "-tf", "0.001", "-evals", "1500", "-quality-every", "500",
				"-event-log", v+".bmel", "-advise-out", v+".adv.jsonl",
				"-trace", v+".trace.json", "-out", v+".json")...)
			// The virtual master meters both T_C of Eq. 3.
			if want := "empirical ceiling: P_UB = tf.mean/(tc.send.mean+tc.recv.mean+ta.mean) = "; !strings.Contains(out, want) {
				t.Fatalf("borg -parallel 8 -trace: no %q in the report\n%s", want, out)
			}
		}
		tl.same("v.bmel", "v2.bmel")
		tl.chromeTF("v.trace.json")
		// The log's header names the run: the replay takes no run flag.
		tl.ok("borg", "-replay", "v.bmel", "-out", "v.replay.json")
		tl.same("v.json", "v.replay.json")
		// A run flag that agrees with the header is fine; one that does
		// not is refused.
		tl.ok("borg", with("-replay", "v.bmel", "-out", "v.replay2.json")...)
		tl.same("v.json", "v.replay2.json")
		if code, _, stderr := tl.run("", "borg", "-replay", "v.bmel", "-problem", "ZDT1"); code != 2 || !strings.Contains(stderr, "-problem ZDT1 disagrees") {
			t.Fatalf("borg -replay v.bmel -problem ZDT1: exit %d, want 2 naming the flag\n%s", code, stderr)
		}

		// Neither a replay nor a serial run has a live run to instrument:
		// each says so for every recording flag and writes no file for it.
		for _, args := range [][]string{
			{"-replay", "v.bmel", "-trace", "none.trace.json"},
			{"-replay", "v.bmel", "-event-log", "none.bmel"},
			{"-replay", "v.bmel", "-advise-out", "none.adv.jsonl"},
			{"-replay", "v.bmel", "-quality-every", "100"},
			{"-replay", "v.bmel", "-quality-wall", "0.01"},
			{"-evals", "100", "-trace", "none.trace.json"},
			{"-evals", "100", "-metrics-out", "none.metrics.json"},
		} {
			code, _, stderr := tl.run("", "borg", with(args...)...)
			if code != 0 || !strings.Contains(stderr, "records no") || !strings.Contains(stderr, args[2]) {
				t.Fatalf("borg %v: exit %d, want 0 with a records-nothing warning naming %s\n%s", args, code, args[2], stderr)
			}
			for _, name := range []string{"none.trace.json", "none.bmel", "none.adv.jsonl", "none.metrics.json"} {
				if _, err := os.Stat(filepath.Join(tl.dir, name)); !os.IsNotExist(err) {
					t.Fatalf("borg %v wrote %s (%v)", args, name, err)
				}
			}
		}

		// A live TCP run: borgd redials until the master is up and exits
		// when the master sends Stop.
		addr := freeAddr(t)
		worker := tl.start("borgd", "-connect", addr, "-quiet")
		out := tl.ok("borg", with("-transport", "tcp", "-listen", addr, "-evals", "600", "-wall-limit", "60s",
			"-event-log", "tcp.bmel", "-trace", "tcp.trace.json", "-out", "tcp.json")...)
		if err := worker.Wait(); err != nil {
			t.Fatalf("borgd: %v", err)
		}
		// The socket master meters no receive: Eq. 3's two T_C are two sends.
		if want := "empirical ceiling: P_UB = tf.mean/(2*tc.send.mean+ta.mean) = "; !strings.Contains(out, want) {
			t.Fatalf("borg -transport tcp -trace: no %q in the report\n%s", want, out)
		}
		tl.chromeTF("tcp.trace.json")
		tl.ok("borg", "-replay", "tcp.bmel", "-out", "tcp.replay.json")
		tl.same("tcp.json", "tcp.replay.json")

		// A JSONL file that is no advisor journal: borgview top refuses it.
		if err := os.WriteFile(filepath.Join(tl.dir, "w.jsonl"), []byte(`{"ts":"2026-01-01T00:00:00Z","metrics":{}}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, stderr := tl.run("", "borgview", "top", "-file", "w.jsonl", "-once"); code != 1 || !strings.Contains(stderr, "unknown field") {
			t.Fatalf("borgview top -file on a non-advisor journal: exit %d, want 1 naming the unknown field\n%s", code, stderr)
		}

		// The live advisor of a TCP master, read from its /debug/scaling
		// while the run is in flight; then both processes end cleanly.
		addr, dbg := freeAddr(t), freeAddr(t)
		live := tl.start("borg", with("-transport", "tcp", "-listen", addr, "-debug-addr", dbg, "-evals", "200", "-wall-limit", "60s")...)
		worker = tl.start("borgd", "-connect", addr, "-delay", "0.01", "-quiet")
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			code, out, stderr := tl.run("", "borgview", "top", "-addr", dbg, "-once")
			if code == 0 && strings.Contains(out, "borg scalability advisor") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("borgview top -addr: no live report within 30s (exit %d)\n%s%s", code, out, stderr)
			}
		}
		for name, cmd := range map[string]*exec.Cmd{"borg": live, "borgd": worker} {
			if err := cmd.Wait(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}

		// Recorded by the goroutine driver before it was deleted (borg
		// -parallel 4 -transport realtime -tf 0.0005 -evals 300); the
		// log is transport-free, so it still replays to the recorded
		// archive. It is a version-1 log, whose header does not name the
		// run, so its replay takes the run flags. Never regenerate these
		// files with current code.
		tl.ok("borg", with("-replay", testdata(t, "realtime.bmel"), "-out", "rt.replay.json")...)
		tl.same(testdata(t, "realtime.json"), "rt.replay.json")

		tl.ok("borgview", "timeline", "-events", "v.bmel")
		if out := tl.ok("borgview", "timeline", "-quality", "v.bmel"); !strings.Contains(out, "v.bmel (3 samples;") {
			t.Fatalf("borgview timeline -quality v.bmel: want the samples at 1, 501 and 1001 evaluations of -quality-every 500\n%s", out)
		}
		if out := tl.ok("borgview", "top", "-file", "v.adv.jsonl", "-once"); !strings.Contains(out, "borg scalability advisor") {
			t.Fatalf("borgview top -file: unexpected report\n%s", out)
		}
	})

	t.Run("borg islands record replay view", func(t *testing.T) {
		tl.t = t
		// Two tcp islands, one borgd each; the run records a directory.
		a, b := freeAddr(t), freeAddr(t)
		workers := []*exec.Cmd{tl.start("borgd", "-connect", a, "-quiet"), tl.start("borgd", "-connect", b, "-quiet")}
		out := tl.ok("borg", with("-islands", "2", "-transport", "tcp", "-listen", a+","+b, "-evals", "300", "-migrate", "100",
			"-wall-limit", "60s", "-event-log", "fed", "-trace", "fed.trace.json", "-quality-every", "100", "-out", "fed.json")...)
		for _, w := range workers {
			if err := w.Wait(); err != nil {
				t.Fatalf("borgd: %v", err)
			}
		}
		for _, want := range []string{"island-0: evals=", "island-1: evals=", "total: evals=", "empirical ceiling: P_UB"} {
			if !strings.Contains(out, want) {
				t.Fatalf("borg -islands 2 -trace: no %q in the report\n%s", want, out)
			}
		}
		tl.chromeTF("fed.trace.json")

		// The directory replays to the merged archive, with no run flag.
		tl.ok("borg", "-replay", "fed", "-out", "fed.replay.json")
		tl.same("fed.json", "fed.replay.json")
		if code, _, stderr := tl.run("", "borg", "-replay", "fed", "-problem", "ZDT1"); code != 2 || !strings.Contains(stderr, "-problem ZDT1 disagrees") {
			t.Fatalf("borg -replay fed -problem ZDT1: exit %d, want 2 naming the flag\n%s", code, stderr)
		}
		if code, _, stderr := tl.run("", "borg", "-replay", "fed", "-quality-every", "100"); code != 0 || !strings.Contains(stderr, "records nothing") {
			t.Fatalf("borg -replay fed -quality-every 100: exit %d, want 0 with a records-nothing warning\n%s", code, stderr)
		}

		tl.ok("borgview", "timeline", "-events", "fed/island-0.bmel")
		out = tl.ok("borgview", "timeline", "-quality", "fed")
		for _, island := range []string{"island-0.bmel (", "island-1.bmel ("} {
			if !strings.Contains(out, island) {
				t.Fatalf("borgview timeline -quality fed: no timeline for %s\n%s", island, out)
			}
		}
	})

	t.Run("borgsvc kill restart", func(t *testing.T) {
		tl.t = t
		fleet, api := freeAddr(t), freeAddr(t)
		svcArgs := []string{"-fleet-listen", fleet, "-api-addr", api, "-state-dir", "svc"}
		q := func(args ...string) []string { return append([]string{"-addr", api}, args...) }
		// answering polls borgq list until the service's API is up.
		answering := func() {
			t.Helper()
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
				if code, _, _ := tl.run("", "borgq", q("list")...); code == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("borgsvc API never answered")
				}
			}
		}
		result := func(id, out string) {
			t.Helper()
			if code, _, stderr := tl.run("", "borgq", q("result", id, "-o", out)...); code != 0 {
				t.Fatalf("borgq result: exit %d\n%s", code, stderr)
			}
		}

		svc := tl.start("borgsvc", svcArgs...)
		tl.start("borgd", "-connect", fleet, "-quiet")
		answering()
		id := strings.Fields(tl.ok("borgq", q("submit", "-problem", "DTLZ2", "-objectives", "3", "-evals", "300", "-population", "16")...))[0]
		tl.ok("borgq", q("watch", id, "-every", "50ms")...)
		result(id, "a.json")
		// The finished job's advisor report, read live from the API's
		// /debug/scaling?job= route.
		if out := tl.ok("borgview", "top", "-addr", api, "-job", id, "-once"); !strings.Contains(out, "borg scalability advisor") {
			t.Fatalf("borgview top -addr -job: unexpected report\n%s", out)
		}

		// SIGKILL: no drain, no shutdown hook; the state directory is
		// all the next server has.
		if err := svc.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		svc.Wait() //nolint:errcheck // killed on purpose
		tl.start("borgsvc", svcArgs...)
		answering()
		result(id, "b.json")
		tl.same("a.json", "b.json")
	})

	t.Run("experiments", func(t *testing.T) {
		tl.t = t
		if out := tl.ok("borgview", "timeline"); !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Figure 2") {
			t.Fatalf("borgview timeline: missing a figure\n%s", out)
		}
		if out := tl.ok("borgexp", "table2", "-quick", "-problems", "DTLZ2", "-csv", "t2.csv"); !strings.Contains(out, "AnaTime") {
			t.Fatalf("borgexp table2: no table header\n%s", out)
		}
		tl.ok("borgexp", "figures", "-fig", "3", "-evals", "2000", "-reps", "1", "-tf", "0.01")
		tl.ok("borgexp", "figures", "-fig", "5", "-quick")
		a := tl.ok("borgexp", "scalesim", "-tf", "0.001", "-n", "5000", "-p", "8,16", "-seed", "7")
		if b := tl.ok("borgexp", "scalesim", "-tf", "0.001", "-n", "5000", "-p", "8,16", "-seed", "7"); a != b {
			t.Fatal("borgexp scalesim is not deterministic at a fixed seed")
		}
		tl.ok("borgexp", "scalesim", "-tf", "0.01", "-n", "2000", "-p", "8", "-mtbf", "2")
		samples := "# T_A samples\n" + strings.Repeat("0.000021\n0.000034\n0.000027\n0.000045\n0.000019\n0.000030\n", 20)
		if err := os.WriteFile(filepath.Join(tl.dir, "samples.txt"), []byte(samples), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile := tl.ok("borgexp", "fitdist", "-file", "samples.txt")
		if !strings.HasPrefix(fromFile, "* ") {
			t.Fatalf("borgexp fitdist: no best fit marked\n%s", fromFile)
		}
		if code, fromStdin, _ := tl.run(samples, "borgexp", "fitdist"); code != 0 || fromStdin != fromFile {
			t.Fatalf("borgexp fitdist on stdin: exit %d, differs from -file", code)
		}
	})

	t.Run("bad input", func(t *testing.T) {
		tl.t = t
		for _, c := range []struct {
			want int
			msg  string // must appear on stderr
			name string
			args []string
		}{
			{2, "commands:", "borgview", nil},
			{2, `unknown command "nope"`, "borgview", []string{"nope"}},
			{2, "commands:", "borgexp", nil},
			{2, `unknown command "table3"`, "borgexp", []string{"table3"}},
			{2, "-width must be at least 1", "borgview", []string{"timeline", "-width", "-5"}},
			{2, "-width must be at least 1", "borgview", []string{"timeline", "-width", "0"}},
			{1, "at least 2 processors", "borgview", []string{"timeline", "-p", "1"}},
			{1, "no such file", "borgview", []string{"timeline", "-events", "missing.bmel"}},
			{1, "bad magic", "borgview", []string{"timeline", "-events", "v.json"}},
			{2, "exactly one of -addr or -file", "borgview", []string{"top"}},
			{2, "-job needs -addr", "borgview", []string{"top", "-file", "x", "-job", "j1"}},
			{2, "-fed needs -addr", "borgview", []string{"top", "-file", "x", "-fed"}},
			{1, "no such file", "borgview", []string{"top", "-file", "missing.jsonl", "-once"}},
			{2, `unknown command "trace"`, "borgview", []string{"trace"}},
			{1, "epsilons must be positive", "borg", []string{"-epsilon", "0", "-evals", "10"}},
			{2, "unknown transport", "borg", []string{"-parallel", "4", "-transport", "realtime"}},
			{2, "needs -listen", "borg", []string{"-transport", "tcp"}},
			{2, "flag provided but not defined: -quality-log", "borg", []string{"-quality-log", "v.qlog"}},
			{2, "-islands must be at least 1", "borg", []string{"-islands", "0"}},
			{2, "-listen names 1 addresses for 2 islands", "borg", []string{"-islands", "2", "-transport", "tcp", "-listen", "127.0.0.1:1"}},
			{2, "-mtbf needs a single master", "borg", []string{"-islands", "2", "-parallel", "4", "-mtbf", "1"}},
			{2, "needs -parallel P", "borg", []string{"-islands", "2"}},
			{1, "NOPE", "borgexp", []string{"fitdist", "-collect", "-problem", "NOPE"}},
			{2, "bad processor count", "borgexp", []string{"scalesim", "-p", "1"}},
			{2, "-mttr must be positive", "borgexp", []string{"scalesim", "-mtbf", "1", "-mttr", "0"}},
			{2, "negative time", "borgexp", []string{"scalesim", "-ta", "-0.001"}},
			{2, "negative time", "borgexp", []string{"scalesim", "-ta", "-0.001", "-mtbf", "1"}},
			{1, "unknown figure 9", "borgexp", []string{"figures", "-fig", "9"}},
			{1, "bad TF value", "borgexp", []string{"figures", "-tf", "abc"}},
			{1, "no samples", "borgexp", []string{"fitdist", "-file", os.DevNull}},
			{2, "unknown problem", "borgexp", []string{"table2", "-problems", "NOPE"}},
			{2, "flag provided but not defined", "borgexp", []string{"fitdist", "-nope"}},
		} {
			code, _, stderr := tl.run("", c.name, c.args...)
			if code != c.want || !strings.Contains(stderr, c.msg) {
				t.Errorf("%s %v: exit %d, want %d with %q on stderr; got\n%s", c.name, c.args, code, c.want, c.msg, stderr)
			}
			if strings.Contains(stderr, "goroutine ") {
				t.Errorf("%s %v: died with a goroutine dump\n%s", c.name, c.args, stderr)
			}
		}
	})
}
