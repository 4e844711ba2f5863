package load

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"carsgo/internal/serve/metrics"
)

// ReportSchemaVersion versions the LOAD_<date>.json layout; bump on
// any field rename or semantic change (ReadReport, and so
// cmd/benchjson -compare, refuses other versions).
const ReportSchemaVersion = 1

// ReportKind marks a file as a serving-layer load report; ReadReport
// refuses JSON of any other kind.
const ReportKind = "load"

// Report is the LOAD_<date>.json document: the serving layer's perf
// trajectory. One run of cmd/carsbench archives
// the offered load's exact identity (seed + model — replayable byte
// for byte), the per-stage client-side measurements, and the daemon's
// own counter deltas over the run, so the perf trajectory covers the
// cache/singleflight/jobq stack and not just the simulator.
type Report struct {
	SchemaVersion int    `json:"schemaVersion"`
	Kind          string `json:"kind"`
	Date          string `json:"date"`
	GoVersion     string `json:"goVersion,omitempty"`
	GOOS          string `json:"goos,omitempty"`
	GOARCH        string `json:"goarch,omitempty"`

	// Mode is "closed" or "open".
	Mode string `json:"mode"`
	// Seed replays the request-key sequence.
	Seed  uint64    `json:"seed"`
	Model ModelInfo `json:"model"`

	Stages []StageReport `json:"stages"`
	// Server holds the daemon's counter deltas over the whole run
	// (absent when the daemon's /metricsz was unreachable).
	Server *ServerDelta `json:"server,omitempty"`
}

// ModelInfo archives the request-mix knobs.
type ModelInfo struct {
	Keys    int    `json:"keys"`
	Skew    int    `json:"skew"`
	ColdPct int    `json:"coldPct"`
	Config  string `json:"config"`
	Full    bool   `json:"full,omitempty"`
}

// Quantiles are client-observed latencies in milliseconds.
type Quantiles struct {
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	MaxMs  float64 `json:"maxMs"`
	MeanMs float64 `json:"meanMs"`
}

// StageReport is one ramp stage's archived measurement.
type StageReport struct {
	Concurrency int     `json:"concurrency,omitempty"`
	RateRPS     int     `json:"rateRps,omitempty"`
	DurationSec float64 `json:"durationSec"`

	Sent            int            `json:"sent"`
	OK              int            `json:"ok"`
	Cached          int            `json:"cached"`
	Shared          int            `json:"shared"`
	ColdSent        int            `json:"coldSent"`
	Dropped         int            `json:"dropped,omitempty"`
	TransportErrors int            `json:"transportErrors,omitempty"`
	Codes           map[string]int `json:"codes,omitempty"`

	ThroughputRPS float64   `json:"throughputRps"`
	Latency       Quantiles `json:"latency"`
}

// ServerDelta is the daemon's own view of the run: counter growth
// between the before/after /metricsz snapshots.
type ServerDelta struct {
	SimRuns   float64 `json:"simRuns"`
	SimCycles float64 `json:"simCycles"`

	SingleflightExecutions float64 `json:"singleflightExecutions"`
	SingleflightCollapsed  float64 `json:"singleflightCollapsed"`
	// CollapseRate is collapsed / (collapsed + executions): the share
	// of deduplicatable work the single-flight layer actually absorbed.
	CollapseRate float64 `json:"collapseRate"`

	CacheHits         float64 `json:"cacheHits"`
	CacheMiss         float64 `json:"cacheMisses"`
	RequestsCached    float64 `json:"requestsCached"`
	RequestsCollapsed float64 `json:"requestsCollapsed"`
	// CacheHitRatio is request-level: requestsCached / OK requests'
	// cache lookups (cached + collapsed + executions).
	CacheHitRatio float64 `json:"cacheHitRatio"`

	Rejected429    float64 `json:"rejected429"`
	Unavailable503 float64 `json:"unavailable503"`
	Timeout504     float64 `json:"timeout504"`
}

// StageReportOf renders one driver stage result.
func StageReportOf(res StageResult) StageReport {
	sr := StageReport{
		Concurrency:     res.Stage.Concurrency,
		RateRPS:         res.Stage.Rate,
		DurationSec:     res.Elapsed.Seconds(),
		Sent:            res.Sent,
		OK:              res.OK,
		Cached:          res.Cached,
		Shared:          res.Shared,
		ColdSent:        res.ColdSent,
		Dropped:         res.Dropped,
		TransportErrors: res.TransportErrors,
		ThroughputRPS:   res.Throughput(),
		Latency:         QuantilesOf(res.Hist),
	}
	if len(res.Codes) > 0 {
		sr.Codes = map[string]int{}
		for code, n := range res.Codes {
			sr.Codes[strconv.Itoa(code)] = n
		}
	}
	return sr
}

// QuantilesOf renders a recorder's summary in milliseconds.
func QuantilesOf(h *Hist) Quantiles {
	s := h.Summarize()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Quantiles{
		P50Ms: ms(s.P50), P90Ms: ms(s.P90), P99Ms: ms(s.P99), P999Ms: ms(s.P999),
		MaxMs: ms(s.Max), MeanMs: ms(s.Mean),
	}
}

// ServerDeltaOf computes the daemon-side counter deltas between two
// /metricsz snapshots.
func ServerDeltaOf(before, after metrics.Snapshot) ServerDelta {
	d := ServerDelta{
		SimRuns:                metrics.Delta(before, after, "carsd_sim_runs_total"),
		SimCycles:              metrics.Delta(before, after, "carsd_sim_cycles_total"),
		SingleflightExecutions: metrics.Delta(before, after, "carsd_singleflight_executions_total"),
		SingleflightCollapsed:  metrics.Delta(before, after, "carsd_singleflight_collapsed_total"),
		CacheHits:              metrics.Delta(before, after, "carsd_cache_hits_total"),
		CacheMiss:              metrics.Delta(before, after, "carsd_cache_misses_total"),
		RequestsCached:         metrics.Delta(before, after, "carsd_requests_cached_total"),
		RequestsCollapsed:      metrics.Delta(before, after, "carsd_requests_collapsed_total"),
		Rejected429:            metrics.DeltaWhere(before, after, "carsd_http_requests_total", "code", "429"),
		Unavailable503:         metrics.DeltaWhere(before, after, "carsd_http_requests_total", "code", "503"),
		Timeout504:             metrics.DeltaWhere(before, after, "carsd_http_requests_total", "code", "504"),
	}
	if flights := d.SingleflightCollapsed + d.SingleflightExecutions; flights > 0 {
		d.CollapseRate = d.SingleflightCollapsed / flights
	}
	if served := d.RequestsCached + d.RequestsCollapsed + d.SingleflightExecutions; served > 0 {
		d.CacheHitRatio = d.RequestsCached / served
	}
	return d
}

// WriteFile archives the report (two-space indent, trailing newline).
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads and sanity-checks an archived load report.
func ReadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Kind != ReportKind {
		return nil, fmt.Errorf("%s: kind %q is not a load report", path, r.Kind)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("%s: unsupported load schema version %d (this build reads %d)", path, r.SchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}
