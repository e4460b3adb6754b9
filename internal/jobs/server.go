package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/obs"
)

// DebugOptions mounts the job API and the per-job scaling reports on
// an obs debug server, next to /debug/vars and /debug/pprof:
//
//	POST   /jobs              submit (201; 400 bad spec, 429 queue
//	                          full, 503 draining)
//	GET    /jobs              list every job, submission order
//	GET    /jobs/{id}         one job's status + advisor report
//	GET    /jobs/{id}/watch   stream status as JSONL until terminal
//	                          (?interval=duration, default 1s)
//	GET    /jobs/{id}/result  current ε-archive as archive JSON
//	DELETE /jobs/{id}         cancel (idempotent)
//	GET    /debug/scaling     per-job advisor reports; ?job=id serves
//	                          one job's report in the exact shape the
//	                          single-run master serves (borgview top -job)
//
// It also installs the scheduler's readiness check, so /readyz fails
// the moment the scheduler starts draining while /healthz stays green.
func (s *Scheduler) DebugOptions() []obs.DebugOption {
	return []obs.DebugOption{
		obs.WithHandler("POST /jobs", http.HandlerFunc(s.handleSubmit)),
		obs.WithHandler("GET /jobs", http.HandlerFunc(s.handleList)),
		obs.WithHandler("GET /jobs/{id}", http.HandlerFunc(s.handleStatus)),
		obs.WithHandler("GET /jobs/{id}/watch", http.HandlerFunc(s.handleWatch)),
		obs.WithHandler("GET /jobs/{id}/result", http.HandlerFunc(s.handleResult)),
		obs.WithHandler("DELETE /jobs/{id}", http.HandlerFunc(s.handleCancel)),
		obs.WithHandler("GET /debug/scaling", http.HandlerFunc(s.handleScaling)),
		obs.WithReadiness(s.Ready),
	}
}

// httpError maps scheduler errors onto statuses and writes a JSON
// error body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // mid-body failures are the client's problem
}

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSubmit(r.Body)
	if err != nil {
		httpError(w, err)
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Scheduler) handleList(w http.ResponseWriter, _ *http.Request) {
	list, err := s.List()
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Scheduler) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleWatch streams one status line per interval until the job is
// terminal or the client goes away — how borgq watch follows a run.
func (s *Scheduler) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	interval := time.Second
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			httpError(w, fmt.Errorf("jobs: bad interval %q", q))
			return
		}
		interval = d
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	st, err := s.Get(id)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
		if st, err = s.Get(id); err != nil {
			return
		}
	}
}

func (s *Scheduler) handleResult(w http.ResponseWriter, r *http.Request) {
	data, err := s.Result(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(data) //nolint:errcheck
}

func (s *Scheduler) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
}

// handleScaling serves the advisor analysis. With ?job=id the response
// is that job's advisor.Report verbatim — the same schema the
// single-run master serves on /debug/scaling, so borgview top points at a
// job unchanged. Without it, a map of every job's report.
func (s *Scheduler) handleScaling(w http.ResponseWriter, r *http.Request) {
	advs, err := s.Advisors()
	if err != nil {
		httpError(w, err)
		return
	}
	if id := r.URL.Query().Get("job"); id != "" {
		adv, ok := advs[id]
		if !ok {
			httpError(w, fmt.Errorf("%w: %s (or it has not started)", ErrNotFound, id))
			return
		}
		writeJSON(w, http.StatusOK, adv.Report())
		return
	}
	reports := make(map[string]advisor.Report, len(advs))
	for id, adv := range advs {
		reports[id] = adv.Report()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": reports})
}
