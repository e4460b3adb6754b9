package obs

import "testing"

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `[`,
		"no traceEvents": `{}`,
		"unknown phase":  `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":0}]}`,
		"missing name":   `{"traceEvents":[{"ph":"B","ts":0,"pid":1,"tid":0}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":1,"tid":0}]}`,
		"negative dur":   `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-5,"pid":1,"tid":0}]}`,
		"E without B":    `{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":1,"tid":0}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":0},{"ph":"E","ts":1,"pid":1,"tid":0}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	// An unclosed B is a legal mid-flight capture.
	open := `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":0}]}`
	if err := ValidateChromeTrace([]byte(open)); err != nil {
		t.Errorf("trace with open span rejected: %v", err)
	}
}
