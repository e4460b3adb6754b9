package httpd

import (
	"net/http"
	"strconv"

	"borgmoea/internal/advisor"
	"borgmoea/internal/obs"
)

// QualityHandler serves the sampler's report as JSON — mount it on the
// debug server as /debug/quality via WithHandler.
func QualityHandler(s *obs.QualitySampler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSONValue(w, s.Report())
	})
}

// FederationQualityHandler serves one quality report per island, in
// island order, as {"islands": [...]}: the federation-level
// /debug/quality.
func FederationQualityHandler(qs []*obs.QualitySampler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		doc := struct {
			Islands []obs.QualityReport `json:"islands"`
		}{Islands: make([]obs.QualityReport, len(qs))}
		for i, q := range qs {
			doc.Islands[i] = q.Report()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSONValue(w, doc)
	})
}

// AdvisorHandler serves the advisor's current Report as JSON — mounted
// on the debug mux as /debug/scaling via WithHandler.
func AdvisorHandler(a *advisor.Advisor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSONValue(w, a.Report())
	})
}

// FederationHandler serves the federated report as JSON — the
// federation-level /debug/scaling. ?island=i narrows to one island's
// plain Report.
func FederationHandler(f *advisor.Federation) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if q := req.URL.Query().Get("island"); q != "" {
			var a *advisor.Advisor
			if i, err := strconv.Atoi(q); err == nil {
				a = f.Island(i)
			}
			if a == nil {
				http.Error(w, "island out of range", http.StatusNotFound)
				return
			}
			writeJSONValue(w, a.Report())
			return
		}
		writeJSONValue(w, f.Report())
	})
}
