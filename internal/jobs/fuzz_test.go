package jobs

import (
	"strings"
	"testing"

	"borgmoea/internal/master"
)

// FuzzDecodeSubmit hammers the job-submission decoder — the service's
// network-facing parse surface — with arbitrary bytes. It must never
// panic; anything it accepts must either normalize cleanly or be
// rejected by Normalize with an error, and a normalized spec must be
// internally consistent (defaults filled, one epsilon per objective).
func FuzzDecodeSubmit(f *testing.F) {
	f.Add(`{"problem":"ZDT1","evaluations":100}`)
	f.Add(`{"problem":"DTLZ2","objectives":5,"evaluations":1000,"epsilon":0.05,"priority":4}`)
	f.Add(`{"problem":"UF1","evaluations":50,"epsilons":[0.1,0.2],"population":16,"seed":7}`)
	f.Add(`{"problem":"","evaluations":0}`)
	f.Add(`{"problem":"ZDT1","evaluations":1e308}`)
	f.Add(`{"problem":"ZDT1","evaluations":100,"epsilons":[1e-300]}`)
	f.Add(`[]`)
	f.Add(`nullnull`)
	f.Add("{}")
	f.Fuzz(func(t *testing.T, data string) {
		spec, err := DecodeSubmit(strings.NewReader(data))
		if err != nil {
			return
		}
		p, cfg, err := spec.Normalize()
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("Normalize returned no error and no problem for %q", data)
		}
		if len(cfg.Epsilons) != p.NumObjs() {
			t.Fatalf("normalized %q: %d epsilons for %d objectives", data, len(cfg.Epsilons), p.NumObjs())
		}
		if spec.Priority < 1 || spec.Priority > master.MaxPriority {
			t.Fatalf("normalized %q: priority %d out of range", data, spec.Priority)
		}
		if spec.Seed == 0 || spec.Evaluations == 0 {
			t.Fatalf("normalized %q: zero seed or budget survived", data)
		}
	})
}
