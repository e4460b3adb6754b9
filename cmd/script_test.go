// Package cmd_test drives the seven binaries end to end, the way
// .claude/skills/verify/SKILL.md's recipes do by hand: build once,
// record → replay → cmp, render the recorded artefacts, run each
// experiment at toy size, and check every bad-input exit status.
package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var binaries = []string{"borg", "borgd", "borgexp", "borgfed", "borgq", "borgsvc", "borgview"}

// TestCmdHoldsExactlyTheSevenBinaries keeps the merged tools merged: a
// new directory under cmd/ is a new binary to document, test and keep
// in step with the others, and should be a subcommand instead.
func TestCmdHoldsExactlyTheSevenBinaries(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
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

// same asserts two files in the scratch directory are byte-identical
// and non-empty.
func (tl *tools) same(a, b string) {
	tl.t.Helper()
	da, err := os.ReadFile(filepath.Join(tl.dir, a))
	if err != nil {
		tl.t.Fatal(err)
	}
	db, err := os.ReadFile(filepath.Join(tl.dir, b))
	if err != nil {
		tl.t.Fatal(err)
	}
	if len(da) == 0 || !bytes.Equal(da, db) {
		tl.t.Fatalf("%s (%d bytes) and %s (%d bytes) differ", a, len(da), b, len(db))
	}
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

		tl.ok("borg", with("-parallel", "8", "-tf", "0.001", "-evals", "1500", "-quality-every", "500",
			"-event-log", "v.bmel", "-quality-log", "v.qlog", "-advise-out", "v.adv.jsonl", "-out", "v.json")...)
		tl.ok("borg", with("-replay", "v.bmel", "-quality-every", "500",
			"-quality-log", "v.replay.qlog", "-out", "v.replay.json")...)
		tl.same("v.json", "v.replay.json")
		tl.same("v.qlog", "v.replay.qlog")

		tl.ok("borg", with("-parallel", "4", "-transport", "realtime", "-tf", "0.0005", "-evals", "600",
			"-event-log", "rt.bmel", "-out", "rt.json")...)
		tl.ok("borg", with("-replay", "rt.bmel", "-out", "rt.replay.json")...)
		tl.same("rt.json", "rt.replay.json")

		tl.ok("borgview", "timeline", "-events", "v.bmel")
		tl.ok("borgview", "timeline", "-quality", "v.qlog")
		if out := tl.ok("borgview", "top", "-file", "v.adv.jsonl", "-once"); !strings.Contains(out, "borg scalability advisor") {
			t.Fatalf("borgview top -file: unexpected report\n%s", out)
		}
	})

	t.Run("borgfed record replay view", func(t *testing.T) {
		tl.t = t
		if err := os.Mkdir(filepath.Join(tl.dir, "fed"), 0o755); err != nil {
			t.Fatal(err)
		}
		tl.ok("borgfed", with("-islands", "2", "-evals", "300", "-migrate", "100", "-workers", "2",
			"-log-dir", "fed", "-trace-rate", "1", "-quality-every", "100", "-out", "fed.json")...)
		tl.ok("borgfed", with("-replay-dir", "fed", "-islands", "2", "-out", "fed.replay.json")...)
		tl.same("fed.json", "fed.replay.json")

		if out := tl.ok("borgview", "trace", "-dir", "fed", "-jsonl", "spans.jsonl", "-chrome", "trace.json"); !strings.Contains(out, "total: evals=") {
			t.Fatalf("borgview trace -dir: no total attribution\n%s", out)
		}
		tl.ok("borgview", "trace", "-log", "fed/island-0.bmel", "-trace", "fed/island-0.trace")
		for _, f := range []string{"spans.jsonl", "trace.json"} {
			if fi, err := os.Stat(filepath.Join(tl.dir, f)); err != nil || fi.Size() == 0 {
				t.Fatalf("borgview trace wrote no %s (%v)", f, err)
			}
		}
		tl.ok("borgview", "timeline", "-events", "fed/island-0.bmel")
		tl.ok("borgview", "timeline", "-quality", "fed/island-1.qlog")
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
		if out := tl.ok("borgexp", "compare", "-evals", "500"); !strings.Contains(out, "NSGA-II") {
			t.Fatalf("borgexp compare: unexpected report\n%s", out)
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
			{2, "exactly one of -addr or -file", "borgview", []string{"top"}},
			{2, "-job needs -addr", "borgview", []string{"top", "-file", "x", "-job", "j1"}},
			{2, "-fed needs -addr", "borgview", []string{"top", "-file", "x", "-fed"}},
			{1, "no such file", "borgview", []string{"top", "-file", "missing.jsonl", "-once"}},
			{1, "pass either -dir or both -log and -trace", "borgview", []string{"trace"}},
			{1, "no island-<i>.trace sidecars found", "borgview", []string{"trace", "-dir", "missing"}},
			{1, "epsilons must be positive", "borgexp", []string{"compare", "-epsilon", "0"}},
			{1, "epsilons must be positive", "borg", []string{"-epsilon", "0", "-evals", "10"}},
			{1, "NOPE", "borgexp", []string{"compare", "-problem", "NOPE"}},
			{2, "bad processor count", "borgexp", []string{"scalesim", "-p", "1"}},
			{2, "-mttr must be positive", "borgexp", []string{"scalesim", "-mtbf", "1", "-mttr", "0"}},
			{1, "unknown figure 9", "borgexp", []string{"figures", "-fig", "9"}},
			{1, "bad TF value", "borgexp", []string{"figures", "-tf", "abc"}},
			{1, "no samples", "borgexp", []string{"fitdist", "-file", os.DevNull}},
			{2, "unknown problem", "borgexp", []string{"table2", "-problems", "NOPE"}},
			{2, "flag provided but not defined", "borgexp", []string{"compare", "-nope"}},
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
