// Package metrics turns engine results into durable run records — the
// analogue of the paper's 20 GB of log files — and provides the ASCII
// rendering primitives the visualization tool (cmd/logviz) and the
// harness figures are built from.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"graphbench/internal/engine"
)

// Record is one experiment run in log form.
type Record struct {
	System   string  `json:"system"`
	Dataset  string  `json:"dataset"`
	Workload string  `json:"workload"`
	Machines int     `json:"machines"`
	Status   string  `json:"status"`
	Load     float64 `json:"load_sec"`
	Exec     float64 `json:"exec_sec"`
	Save     float64 `json:"save_sec"`
	Overhead float64 `json:"overhead_sec"`
	Total    float64 `json:"total_sec"`
	Iters    int     `json:"iterations"`
	NetBytes int64   `json:"net_bytes"`
	MemTotal int64   `json:"mem_total_bytes"`
	MemMax   int64   `json:"mem_max_bytes"`
	CPUUser  float64 `json:"cpu_user_sec"`
	CPUIO    float64 `json:"cpu_io_sec"`
	CPUNet   float64 `json:"cpu_net_sec"`
	CPUIdle  float64 `json:"cpu_idle_sec"`
	RepFact  float64 `json:"replication_factor,omitempty"`

	// Memory-governor accounting (host-side, distinct from the modeled
	// mem_* fields above); zero/omitted for ungoverned runs.
	MemBudget  int64  `json:"mem_budget_bytes,omitempty"`
	PeakHeap   int64  `json:"peak_heap_bytes,omitempty"`
	SpillBytes int64  `json:"spill_bytes,omitempty"`
	SoftEvents uint64 `json:"pressure_soft_events,omitempty"`
	HardEvents uint64 `json:"pressure_hard_events,omitempty"`
	Spilled    bool   `json:"spilled,omitempty"`

	// Adaptive-planner provenance: the decision key that produced this
	// run and its realized composite resource cost (see
	// plan.Score). Omitted for runs with a fixed configuration.
	PlanKey      string  `json:"plan_key,omitempty"`
	ResourceCost float64 `json:"resource_cost,omitempty"`
}

// Resource is the per-run resource telemetry the adaptive planner's
// cost model consumes: the axes of the resource-efficiency study
// (wall time, CPU time, memory footprint, message volume) plus the
// cluster size that produced them. Extracted from results by
// ResourceOf and scored by plan.ResourceScore.
type Resource struct {
	TimeSec       float64 `json:"time_sec"`
	CPUSec        float64 `json:"cpu_sec"`
	MemTotalBytes int64   `json:"mem_total_bytes"`
	MemMaxBytes   int64   `json:"mem_max_bytes"`
	NetBytes      int64   `json:"net_bytes"`
	Machines      int     `json:"machines"`
	Status        string  `json:"status"`
}

// OK reports whether the run the telemetry came from succeeded.
func (r Resource) OK() bool { return r.Status == "OK" }

// ResourceOf extracts the planner-facing telemetry from a result.
func ResourceOf(r *engine.Result) Resource {
	return Resource{
		TimeSec:       r.TotalTime(),
		CPUSec:        r.CPUUser + r.CPUIO + r.CPUNet,
		MemTotalBytes: r.MemTotal,
		MemMaxBytes:   r.MemMax,
		NetBytes:      r.NetBytes,
		Machines:      r.Machines,
		Status:        r.Status.String(),
	}
}

// FromResult converts an engine result into a Record.
func FromResult(r *engine.Result) Record {
	return Record{
		System:   r.System,
		Dataset:  r.Dataset,
		Workload: r.Workload.Kind.String(),
		Machines: r.Machines,
		Status:   r.Status.String(),
		Load:     r.Load,
		Exec:     r.Exec,
		Save:     r.Save,
		Overhead: r.Overhead,
		Total:    r.TotalTime(),
		Iters:    r.Iterations,
		NetBytes: r.NetBytes,
		MemTotal: r.MemTotal,
		MemMax:   r.MemMax,
		CPUUser:  r.CPUUser,
		CPUIO:    r.CPUIO,
		CPUNet:   r.CPUNet,
		CPUIdle:  r.CPUIdle,
		RepFact:  r.ReplicationFactor,

		MemBudget:  r.Govern.BudgetBytes,
		PeakHeap:   r.Govern.PeakBytes,
		SpillBytes: r.Govern.SpillBytes,
		SoftEvents: r.Govern.SoftEvents,
		HardEvents: r.Govern.HardEvents,
		Spilled:    r.Govern.Spilled,
	}
}

// WriteLog writes records as JSON lines.
func WriteLog(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// ReadLog parses JSON-lines records, skipping blank lines. A malformed
// final line — the usual signature of a run killed mid-append — is
// skipped with a warning on stderr rather than failing the whole log;
// malformed lines anywhere else still error (see ReadLogPartial).
func ReadLog(r io.Reader) ([]Record, error) {
	recs, warn, err := ReadLogPartial(r)
	if warn != "" {
		fmt.Fprintln(os.Stderr, "metrics:", warn)
	}
	return recs, err
}

// ReadLogPartial parses JSON-lines records, skipping blank lines. It
// distinguishes two failure shapes: a malformed line followed by more
// records means the file itself is damaged and is returned as an error,
// while a malformed line at the very end means the writer was killed
// mid-append — the torn line is dropped, every complete record is
// returned, and warn describes what was skipped.
func ReadLogPartial(r io.Reader) (recs []Record, warn string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	var pendingErr error // malformed line, fatal only if records follow
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if pendingErr != nil {
			return nil, "", pendingErr
		}
		var rec Record
		if uerr := json.Unmarshal([]byte(text), &rec); uerr != nil {
			pendingErr = fmt.Errorf("metrics: log line %d: %w", line, uerr)
			continue
		}
		recs = append(recs, rec)
	}
	if serr := sc.Err(); serr != nil {
		return nil, "", serr
	}
	if pendingErr != nil {
		warn = fmt.Sprintf("skipping torn final log line: %v", pendingErr)
	}
	return recs, warn, nil
}

// Filter returns the records matching every non-empty criterion.
func Filter(recs []Record, system, dataset, workload string, machines int) []Record {
	var out []Record
	for _, r := range recs {
		if system != "" && r.System != system {
			continue
		}
		if dataset != "" && r.Dataset != dataset {
			continue
		}
		if workload != "" && r.Workload != workload {
			continue
		}
		if machines != 0 && r.Machines != machines {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Bar renders a horizontal ASCII bar of value relative to max.
func Bar(value, max float64, width int) string {
	if max <= 0 || value < 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	if n < 1 && value > 0 {
		n = 1
	}
	return strings.Repeat("█", n)
}

// FmtSeconds renders a duration in the paper's style: seconds with
// thousands separators for large values.
func FmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 10:
		return fmt.Sprintf("%.2fs", s)
	case s < 1000:
		return fmt.Sprintf("%.0fs", s)
	default:
		return addCommas(int64(s+0.5)) + "s"
	}
}

// FmtBytes renders byte counts in GB as the paper's tables do.
func FmtBytes(b int64) string {
	gb := float64(b) / (1 << 30)
	switch {
	case gb >= 100:
		return fmt.Sprintf("%.0f GB", gb)
	case gb >= 1:
		return fmt.Sprintf("%.1f GB", gb)
	default:
		return fmt.Sprintf("%.0f MB", float64(b)/(1<<20))
	}
}

func addCommas(n int64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
		if len(s) > lead {
			b.WriteByte(',')
		}
	}
	for i := lead; i < len(s); i += 3 {
		b.WriteString(s[i : i+3])
		if i+3 < len(s) {
			b.WriteByte(',')
		}
	}
	return b.String()
}
