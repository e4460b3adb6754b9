package advisor

// FittedTimes is the advisor's live estimate of the paper's timing
// parameters, plus the shape of the T_F distribution (the analytical
// model assumes deterministic times; a high CV warns that the
// simulation model is the one to trust).
type FittedTimes struct {
	TF      float64 `json:"tf_seconds"`
	TA      float64 `json:"ta_seconds"`
	TC      float64 `json:"tc_seconds"`
	TFP50   float64 `json:"tf_p50_seconds"`
	TFP90   float64 `json:"tf_p90_seconds"`
	TFP99   float64 `json:"tf_p99_seconds"`
	TFCV    float64 `json:"tf_cv"`
	Samples uint64  `json:"tf_samples"`
}

// WorkerReport is one worker's view in the straggler analysis.
type WorkerReport struct {
	Worker    int     `json:"worker"`
	Evals     uint64  `json:"evals"`
	TFDecayed float64 `json:"tf_decayed_seconds"`
	// Ratio is TFDecayed over the fleet median (1 ≈ typical).
	Ratio float64 `json:"ratio"`
	// ZScore is the robust z-score against the fleet (median/MAD).
	ZScore    float64 `json:"z_score"`
	Straggler bool    `json:"straggler"`
}

// Report is one full scalability analysis: the /debug/scaling response
// body and the JSONL snapshot record. All float fields are finite
// (non-finite intermediate values are clamped to 0 so the report
// always marshals).
type Report struct {
	// Progress.
	Processors  int     `json:"processors"`
	LiveWorkers int     `json:"live_workers,omitempty"`
	Budget      uint64  `json:"budget,omitempty"`
	Completed   uint64  `json:"completed"`
	Elapsed     float64 `json:"elapsed_seconds"`

	// Fitted model parameters.
	Times         FittedTimes `json:"times"`
	QueueWaitMean float64     `json:"queue_wait_mean_seconds"`

	// The paper's model, evaluated live (Eqs. 2–4 on the fit).
	PredictedSpeedup    float64 `json:"predicted_speedup"`
	PredictedEfficiency float64 `json:"predicted_efficiency"`
	ObservedSpeedup     float64 `json:"observed_speedup"`
	ObservedEfficiency  float64 `json:"observed_efficiency"`
	ProcessorUpperBound float64 `json:"processor_upper_bound"`
	ProcessorLowerBound float64 `json:"processor_lower_bound"`
	Saturation          float64 `json:"saturation"`
	EffectiveProcessors float64 `json:"effective_processors"`
	MasterUtilization   float64 `json:"master_utilization"`
	ETASeconds          float64 `json:"eta_seconds,omitempty"`

	// Model drift: relative error (Eq. 5) between observed and
	// predicted speedup, raw and smoothed across snapshots.
	DriftScore    float64 `json:"drift_score"`
	DriftSmoothed float64 `json:"drift_smoothed"`
	DriftAlert    bool    `json:"drift_alert"`

	// Per-worker straggler analysis.
	Workers    []WorkerReport `json:"workers,omitempty"`
	Stragglers []int          `json:"stragglers,omitempty"`

	// Search-health analysis (present once quality samples flow; see
	// quality.go).
	Quality *QualityHealth `json:"quality,omitempty"`
}
