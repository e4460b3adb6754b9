package jobs

import (
	"context"
	"testing"
	"time"
)

// TestJobTraceCarriesTA: a traced job's evaluation spans carry the
// master's accept critical section as a "ta" term, like the
// distributed and federation masters' do.
func TestJobTraceCarriesTA(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s, err := New(Config{
		FleetListen:  "127.0.0.1:0",
		LeaseTimeout: 5 * time.Second,
		TraceRate:    1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(&Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 200})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 2, s.FleetAddr(), nil)
	waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.State == StateDone })

	traces, err := s.Traces()
	if err != nil {
		t.Fatal(err)
	}
	evals, withTA := 0, 0
	for _, root := range traces[st.ID].Forest() {
		if root.Name != "eval" || root.Status != "" {
			continue
		}
		evals++
		for _, c := range root.Children {
			if c.Name == "ta" && c.End > c.Start {
				withTA++
			}
		}
	}
	if evals == 0 || withTA != evals {
		t.Fatalf("%d of %d completed evaluation traces carry a ta term, want all", withTA, evals)
	}
}
