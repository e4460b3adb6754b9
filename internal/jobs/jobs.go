// Package jobs turns the one-shot distributed Borg master into a
// long-lived multi-tenant service: clients submit named problems with
// per-run configuration, a scheduler multiplexes every active run over
// one shared borgd fleet, and results stream back over HTTP (the job
// API in internal/httpd) while the runs are still going.
//
// The paper's scalability analysis motivates the design. A single
// asynchronous run saturates once T_F / (T_A + T_C) workers are busy —
// adding processors past the knee buys nothing for that run. A fleet
// sized for peak demand therefore spends most of its life past some
// run's knee; the only way to keep it busy is to run many searches at
// once. The scheduler does exactly that: one master.Core per job (the
// serial critical section stays per-run, as the paper requires),
// ScheduledOffspring policy so a worker finishing an evaluation parks
// until the fair-share scheduler speaks for it, and stride scheduling
// across jobs at per-evaluation granularity so no job starves and
// priorities mean something.
//
// Every scheduling decision lands in the job's own BMEL event log
// (EvReady/EvLeave are ordinary events), streamed to disk as it
// happens, so a killed server replays each job back to its exact
// pre-kill state and resumes it on whatever fleet redials in.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"borgmoea/internal/advisor"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
)

// Spec is a job submission, the spec a job's event log names in its header.
type Spec = master.Spec

// DecodeSubmit parses one submission from r, rejecting unknown fields,
// bodies over master.MaxSpecBytes, and trailing garbage. It only parses —
// callers still Normalize the result. This is the fuzzed entry point
// of the job API.
func DecodeSubmit(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(io.LimitReader(r, master.MaxSpecBytes))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobs: bad submission: %w", err)
	}
	if dec.More() {
		return nil, errors.New("jobs: trailing data after submission")
	}
	return &s, nil
}

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for an active-job slot.
	StateQueued State = "queued"
	// StateRunning: owns a master.Core; receiving fleet grants.
	StateRunning State = "running"
	// StateDone: budget reached; results final.
	StateDone State = "done"
	// StateCancelled: stopped by the client; partial results remain
	// fetchable.
	StateCancelled State = "cancelled"
	// StateFailed: the job cannot make progress (e.g. its checkpoint
	// would not replay); Error says why.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Status is one job's externally visible state — what GET /jobs/{id}
// returns and what /jobs/{id}/watch streams.
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Problem  string `json:"problem"`
	Priority int    `json:"priority"`
	// Evaluations is the accepted NFE so far; Budget the target.
	Evaluations uint64 `json:"evaluations"`
	Budget      uint64 `json:"budget"`
	// ArchiveSize is the current ε-archive membership.
	ArchiveSize int `json:"archive_size"`
	// Workers is how many fleet workers are currently assigned to the
	// job; Outstanding its live leases; Pending its resubmission
	// backlog.
	Workers     int `json:"workers"`
	Outstanding int `json:"outstanding"`
	Pending     int `json:"pending"`
	// Protocol accounting, mirrored from master.Stats.
	Resubmissions uint64 `json:"resubmissions,omitempty"`
	Duplicates    uint64 `json:"duplicates,omitempty"`
	Leaves        uint64 `json:"leaves,omitempty"`
	Deaths        uint64 `json:"deaths,omitempty"`
	// SubmittedAt is RFC3339Nano wall time. The *Seconds fields are on
	// the scheduler's monotonic clock (which survives restarts — a
	// resumed job's times continue where the dead server's left off):
	// SubmittedSeconds when the job was accepted, FirstResultSeconds
	// when its first evaluation was accepted (0 until then),
	// FinishedSeconds when it reached a terminal state (0 until then).
	SubmittedAt        string  `json:"submitted_at"`
	SubmittedSeconds   float64 `json:"submitted_seconds"`
	FirstResultSeconds float64 `json:"first_result_seconds,omitempty"`
	FinishedSeconds    float64 `json:"finished_seconds,omitempty"`
	Error              string  `json:"error,omitempty"`
	// Advisor is the job's live scalability analysis — the same report
	// /debug/scaling serves — filled on single-job queries.
	Advisor *advisor.Report `json:"advisor,omitempty"`
	// Quality is the job's latest search-quality sample, present when
	// the spec opted in via QualityEvery and at least one sample has
	// been taken.
	Quality *obs.QualitySample `json:"quality,omitempty"`
}
