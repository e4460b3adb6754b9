package httpd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"borgmoea/internal/jobs"
)

// JobAPI mounts a job scheduler's API and its per-job scaling reports
// on a debug server, next to /debug/vars and /debug/pprof:
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
func JobAPI(s *jobs.Scheduler) []DebugOption {
	api := jobAPI{s}
	return []DebugOption{
		WithHandler("POST /jobs", http.HandlerFunc(api.handleSubmit)),
		WithHandler("GET /jobs", http.HandlerFunc(api.handleList)),
		WithHandler("GET /jobs/{id}", http.HandlerFunc(api.handleStatus)),
		WithHandler("GET /jobs/{id}/watch", http.HandlerFunc(api.handleWatch)),
		WithHandler("GET /jobs/{id}/result", http.HandlerFunc(api.handleResult)),
		WithHandler("DELETE /jobs/{id}", http.HandlerFunc(api.handleCancel)),
		WithHandler("GET /debug/scaling", http.HandlerFunc(api.handleScaling)),
		WithReadiness(s.Ready),
	}
}

// jobAPI holds the scheduler the job handlers serve.
type jobAPI struct{ s *jobs.Scheduler }

// httpError maps scheduler errors onto statuses and writes a JSON
// error body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, jobs.ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrDraining), errors.Is(err, jobs.ErrClosed):
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

func (api jobAPI) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := jobs.DecodeSubmit(r.Body)
	if err != nil {
		httpError(w, err)
		return
	}
	st, err := api.s.Submit(spec)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (api jobAPI) handleList(w http.ResponseWriter, _ *http.Request) {
	list, err := api.s.List()
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (api jobAPI) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := api.s.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleWatch streams one status line per interval until the job is
// terminal or the client goes away — how borgq watch follows a run.
func (api jobAPI) handleWatch(w http.ResponseWriter, r *http.Request) {
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
	st, err := api.s.Get(id)
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
		if st, err = api.s.Get(id); err != nil {
			return
		}
	}
}

func (api jobAPI) handleResult(w http.ResponseWriter, r *http.Request) {
	data, err := api.s.Result(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(data) //nolint:errcheck
}

func (api jobAPI) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := api.s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
}

// handleScaling serves the advisor analysis. With ?job=id the response
// is that job's advisor.Report verbatim — the same schema the
// single-run master serves on /debug/scaling, so borgview top points at a
// job unchanged. Without it, a map of every job's report.
func (api jobAPI) handleScaling(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("job"); id != "" {
		st, err := api.s.Get(id)
		if err == nil && st.Advisor == nil {
			err = fmt.Errorf("%w: %s (or it has not started)", jobs.ErrNotFound, id)
		}
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st.Advisor)
		return
	}
	reports, err := api.s.Reports()
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": reports})
}
