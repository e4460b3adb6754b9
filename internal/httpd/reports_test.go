package httpd

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"borgmoea/internal/advisor"
	"borgmoea/internal/obs"
)

// seedIsland builds one island advisor with constant timings so the
// fitted estimates are exact.
func seedIsland(procs int, budget uint64, tf, ta, tc float64, samples int, completed uint64, elapsed float64) *advisor.Advisor {
	a := advisor.New(advisor.Config{})
	a.Configure(procs, budget)
	for i := 0; i < samples; i++ {
		a.ObserveTF(1+i%4, tf)
		a.ObserveTA(ta)
		a.ObserveTC(tc)
	}
	a.ObserveAccept(completed, elapsed)
	return a
}

func TestQualityHandlerServesJSON(t *testing.T) {
	s := obs.NewQualitySampler(obs.QualityConfig{Every: 10, Ref: []float64{2, 2}})
	rr := httptest.NewRecorder()
	QualityHandler(s).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	body := rr.Body.String()
	// Latest/History carry omitempty, so only the always-present fields
	// appear on a sampler with no samples yet.
	for _, want := range []string{"\"ref\"", "\"eps_progress_rate\""} {
		if !strings.Contains(body, want) {
			t.Errorf("quality JSON missing %s: %s", want, body)
		}
	}
	if strings.Contains(body, "\"latest\"") {
		t.Errorf("sampler with no samples reported a latest sample: %s", body)
	}
}

// The federation's /debug/quality holds one report per island, in
// island order.
func TestFederationQualityHandler(t *testing.T) {
	qs := []*obs.QualitySampler{
		obs.NewQualitySampler(obs.QualityConfig{Every: 10, Ref: []float64{2, 2}}),
		obs.NewQualitySampler(obs.QualityConfig{Every: 10, Ref: []float64{3, 3}}),
	}
	rr := httptest.NewRecorder()
	FederationQualityHandler(qs).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/quality", nil))
	var doc struct {
		Islands []obs.QualityReport `json:"islands"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("body does not decode: %v", err)
	}
	if len(doc.Islands) != 2 || doc.Islands[1].Ref[0] != 3 {
		t.Fatalf("got %+v, want island 1's report second", doc.Islands)
	}
}

// The advisor serves its full report over /debug/scaling.
func TestAdvisorHandler(t *testing.T) {
	adv := seedIsland(4, 1000, 0.001, 0.000023, 0.000006, 10, 1000, 1.0)

	rec := httptest.NewRecorder()
	AdvisorHandler(adv).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/scaling", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/scaling = %d", rec.Code)
	}
	var rep advisor.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON from handler: %v", err)
	}
	if rep.Completed != 1000 {
		t.Fatalf("handler report completed = %d, want 1000", rep.Completed)
	}
}

func TestFederationHandler(t *testing.T) {
	fed := advisor.NewFederation()
	fed.Attach(seedIsland(3, 100, 0.1, 0.01, 0.001, 5, 50, 1.0))
	h := FederationHandler(fed)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/scaling", nil))
	var fr advisor.FederationReport
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatalf("federated body does not decode: %v", err)
	}
	if fr.Islands != 1 || len(fr.Reports) != 1 {
		t.Fatalf("federated body rolls up %d islands, want 1", fr.Islands)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/scaling?island=0", nil))
	var r advisor.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatalf("island body does not decode: %v", err)
	}
	if r.Completed != 50 {
		t.Fatalf("island report completed = %d, want 50", r.Completed)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/scaling?island=7", nil))
	if rec.Code != 404 {
		t.Fatalf("island=7 returned %d, want 404", rec.Code)
	}
}
