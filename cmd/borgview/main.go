// Command borgview reads what a run leaves behind or serves while it
// runs: the one reader over the BMEL event log (and the quality timeline
// its replay regenerates), advisor JSONL journals and the /debug
// endpoints. Traces are live only: borg -trace writes them. Each
// subcommand is documented on its run function and by
// `borgview <command> -h`.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"borgmoea"
	"borgmoea/internal/ascii"
	"borgmoea/internal/cli"
)

func main() {
	cli.Main("borgview", []cli.Command{
		{Name: "top", Doc: "follow a live master's /debug/scaling (or an -advise-out journal) as a terminal dashboard", Run: runTop},
		{Name: "timeline", Doc: "render Figures 1-2, a recorded run (-events) or its replayed quality timeline (-quality) as ASCII charts", Run: runTimeline},
	})
}

// getJSON fetches path from a master's debug address and decodes the
// JSON body into v. It returns the URL it fetched, for the caller's
// own messages.
func getJSON(addr, path string, v any) (string, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + path
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return url, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return url, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return url, fmt.Errorf("decoding %s: %w", url, err)
	}
	return url, nil
}

// hvPoints is a quality timeline as (evaluations, hypervolume) scatter
// points.
func hvPoints(samples []borgmoea.QualitySample) [][]float64 {
	pts := make([][]float64, len(samples))
	for i, s := range samples {
		pts[i] = []float64{float64(s.Evaluations), s.Hypervolume}
	}
	return pts
}

// operatorRows renders the adaptive operator mix as one gauge row per
// operator; empty when the sample carries no matching probabilities.
func operatorRows(names []string, probs []float64, barWidth int) string {
	if len(names) == 0 || len(probs) != len(names) {
		return ""
	}
	var sb strings.Builder
	for i, name := range names {
		fmt.Fprintf(&sb, "  %-8s %6.1f%% |%s|\n", name, 100*probs[i], ascii.Bar(probs[i], barWidth))
	}
	return sb.String()
}
