package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo says what a result file was measured on, so two files show
// whether they are comparable.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

func readHost() hostInfo {
	h := hostInfo{CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// suiteRun is one child process's result.
type suiteRun struct {
	Round    int    `json:"round"`
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Report   report `json:"report"`
}

// spreadRow holds one end-to-end metric of one workload across the
// rounds of -repeat against that metric's own bound.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"` // (max - min) / median
	Bound    float64   `json:"bound"`
	Verdict  string    `json:"verdict"` // ok | unresolved
}

// resultFile is what benchmarks/out/result-<ts>.json holds.
type resultFile struct {
	Host          hostInfo    `json:"host"`
	Seed          int64       `json:"seed"`
	Scale         float64     `json:"scale"`
	WindowSeconds float64     `json:"window_seconds"`
	TracedWindow  float64     `json:"traced_window_seconds"`
	Quick         bool        `json:"quick"`
	Rounds        int         `json:"rounds"`
	Runs          []suiteRun  `json:"runs"`
	Spreads       []spreadRow `json:"spreads,omitempty"`
}

// runSuite runs every workload, each in its own child process, one
// after another and never concurrently, -repeat times over; with -trace
// each workload's traced run follows its measured one.
func runSuite(o options) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 1, err
	}
	res := resultFile{Host: readHost(), Seed: o.seed, Scale: defaultScale, WindowSeconds: o.seconds,
		TracedWindow: o.seconds * tracedShare, Quick: o.quick, Rounds: o.repeat}
	if o.quick {
		res.Scale = quickScale
	}
	code := 0
	for round := 0; round < o.repeat; round++ {
		for _, def := range workloads {
			for trace := 0; trace <= o.trace; trace++ {
				rep, err := runChild(self, o, def.name, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "hostbench: %s (trace %d): %v\n", def.name, trace, err)
					code = 1
					continue
				}
				res.Runs = append(res.Runs, suiteRun{round, def.name, trace, rep})
			}
		}
	}
	if o.repeat > 1 {
		res.Spreads = spreads(res.Runs)
		for _, row := range res.Spreads {
			fmt.Printf("%-10s %-18s spread %6.2f%%  bound %5.1f%%  %s\n",
				row.Workload, row.Metric, 100*row.Spread, 100*row.Bound, row.Verdict)
			if row.Verdict != "ok" {
				code = 1
			}
		}
	}
	path := filepath.Join(o.out, "result-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 1, err
	}
	fmt.Println("# result file:", path)
	return code, nil
}

// runChild runs one workload in a child process, passing its output
// through, and parses the result line.
func runChild(self string, o options, workload string, trace int) (report, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.out}
	if o.quick {
		args = append(args, "-quick")
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return rep, runErr
		}
		return rep, fmt.Errorf("no result line: %w", err)
	}
	if runErr != nil || !rep.Correct {
		return rep, fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	return rep, nil
}

// spreads compares the rounds of each workload's measured runs, metric
// by metric: a spread within the metric's bound is ok; beyond it the
// same code disagrees with itself by more than a regression would, and
// the metric is unresolved.
func spreads(runs []suiteRun) []spreadRow {
	var rows []spreadRow
	for _, def := range workloads {
		for _, spec := range endToEndSpecs {
			row := spreadRow{Workload: def.name, Metric: spec.name, Bound: spec.bound, Verdict: "ok"}
			for _, r := range runs {
				if r.Workload == def.name && r.Trace == 0 {
					row.Values = append(row.Values, r.Report.Metrics[spec.name].Value)
				}
			}
			if len(row.Values) < 2 {
				continue
			}
			asc := sorted(row.Values)
			row.Spread = (asc[len(asc)-1] - asc[0]) / median(asc)
			if row.Spread > row.Bound {
				row.Verdict = "unresolved"
			}
			rows = append(rows, row)
		}
	}
	return rows
}
