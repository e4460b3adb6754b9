package jobs

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/stats"
)

// TestResumeWritesArchiveOnlyWhenDone: a durable job's event log is its
// only checkpoint. No archive file exists while the job runs or after
// the scheduler closes mid-run; the job that resumes and ends writes
// exactly one, holding the bytes Result serves.
func TestResumeWritesArchiveOnlyWhenDone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	cfg := Config{FleetListener: ln, LeaseTimeout: 2 * time.Second, StateDir: dir, Logf: t.Logf}
	archives := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "*.archive.json*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(&Spec{Problem: "DTLZ2", Objectives: 5, Evaluations: 1500, Population: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 2, addr, stats.NewConstant(0.002))
	waitJobs(t, s1, 60*time.Second, func(st Status) bool { return st.Evaluations > 300 })
	if names := archives(); len(names) != 0 {
		t.Errorf("running job wrote %v", names)
	}
	if got, err := s1.Get(st.ID); err != nil || got.State != StateRunning {
		t.Fatalf("%s: %+v, %v; want it still running", st.ID, got, err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if names := archives(); len(names) != 0 {
		t.Errorf("closing mid-run wrote %v", names)
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FleetListener = ln2
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitJobs(t, s2, 60*time.Second, func(st Status) bool { return st.State == StateDone })
	want := filepath.Join(dir, st.ID+".archive.json")
	if names := archives(); len(names) != 1 || names[0] != want {
		t.Fatalf("finished job left %v, want exactly %s", names, want)
	}
	file, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	served, err := s2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, served) {
		t.Errorf("%s: archive file (%d bytes) is not the served result (%d bytes)", st.ID, len(file), len(served))
	}
}

// TestResumeServesCorruptLogPrefix: a log corrupted at record k resumes
// as a failed job whose result is the archive of its first k events —
// what a run stopped at the last intact event holds — and a second
// restart restores that job from its marker, without replaying the
// log, to the same bytes.
func TestResumeServesCorruptLogPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	dir := t.TempDir()
	cfg := Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 2 * time.Second, StateDir: dir, Logf: t.Logf}
	spec := &Spec{Problem: "DTLZ2", Objectives: 5, Evaluations: 100_000, Population: 16, Seed: 9}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 2, s1.FleetAddr(), stats.NewConstant(0.001))
	waitJobs(t, s1, 60*time.Second, func(st Status) bool { return st.Evaluations >= 300 })
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()

	path := filepath.Join(dir, st.ID+".bmel")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := master.ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	k := len(full.Events) / 2
	sp := *spec
	problem, algCfg, err := sp.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(problem, algCfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := master.Replay(&master.Log{Meta: full.Meta, Events: full.Events[:k]}, master.ReplayConfig{
		Alg:      b,
		Evaluate: evalFor(problem),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := archiveJSON(t, b)
	raw[master.StreamLen(full.Meta, k)] = 0xee // record k's event kind
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	restart := func() (Status, []byte) {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, err := s.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got, data
	}
	stat := func(ext string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, st.ID+"."+ext))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}

	got, data := restart()
	if got.State != StateFailed || got.Evaluations != mc.Completed() || !strings.Contains(got.Error, fmt.Sprintf("record %d:", k)) {
		t.Errorf("restart 1: %s at %d evaluations (%q); want failed at %d, naming record %d",
			got.State, got.Evaluations, got.Error, mc.Completed(), k)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("restart 1 serves %d bytes, not the %d-byte archive of the log's first %d events", len(data), len(want), k)
	}
	marker, archive := stat("final.json"), stat("archive.json")

	got2, data2 := restart()
	if got2.State != got.State || got2.Evaluations != got.Evaluations || got2.ArchiveSize != got.ArchiveSize || got2.Error != got.Error {
		t.Errorf("restart 2: %s at %d evaluations, archive %d (%q); restart 1 said %s at %d, archive %d (%q)",
			got2.State, got2.Evaluations, got2.ArchiveSize, got2.Error, got.State, got.Evaluations, got.ArchiveSize, got.Error)
	}
	if !bytes.Equal(data2, data) {
		t.Error("restart 2 serves different bytes")
	}
	if !os.SameFile(marker, stat("final.json")) || !os.SameFile(archive, stat("archive.json")) {
		t.Error("restart 2 rewrote the job's files: it replayed the log instead of restoring the marker")
	}
}
