// Package plan is the adaptive engine/configuration planner: given a
// dataset profile and a request (workload, machine budget), it selects
// the distributed graph system and run configuration with the lowest
// predicted composite resource cost, and records a full decision trace
// so every choice is auditable.
//
// The paper's central output (Tables 6–10) is a static answer to
// "which system wins where". This package operationalizes it: the
// tables' modeled costs, condensed into a calibration table
// (model_data.go) of per-(system, workload, graph-class) cost curves
// and exact grid cells, become a cost model a planner can query at
// request time.
//
// # Decision inputs
//
// A Profile is the planner's snapshot of a prepared dataset: vertex
// and edge counts, degree skew, density, a sampled effective-diameter
// estimate, paper-scale traversal depths (SSSP eccentricity and
// hash-min WCC rounds, both dilation-adjusted), and an in-core
// working-set estimate. All fields are deterministic functions of the
// graph snapshot (the diameter sample seed is fixed), which makes
// decisions bit-deterministic per snapshot.
//
// # Cost model
//
// Each candidate system is forecast on four axes — wall time, CPU
// time, memory footprint, network traffic — either from the exact
// calibrated grid cell (when the request names a class reference
// dataset at an observed cluster size; modeled costs are
// bit-deterministic, so grid cells are ground truth, not samples) or
// by extrapolating the fitted a/m + b + c·m curves with work- and
// iteration-ratio scaling. Failure predictors encode the paper's
// failure taxonomy: Blogel-B's MPI int32 overflow past 2^29 vertices,
// HaLoop's shuffle failures on wide clusters with long loops,
// timeouts at the 24 h cap, and OOM above 92% of per-machine memory.
//
// The axes collapse into one scalar (see Score):
//
//	Score = Time + 0.05·MemTotalGB + 0.05·NetGB + 0.01·machines·Time
//
// with predicted failures scoring a flat 24 h penalty. The planner
// picks the argmin over candidates; ties break to the
// lexicographically first system key, so the choice is deterministic.
//
// Shard count, shard plan (weighted vs uniform), direction mode, and
// memory tier are then set by documented profile heuristics (see
// Decide) — these knobs never change modeled cost, only host wall
// time, so they ride along with the engine choice rather than being
// scored.
//
// # Sticky decisions
//
// The first Decide for a request cell is pinned for the planner's
// lifetime and repeats return it unchanged, so downstream result
// caches keyed on the decision stay stable. ResourceScore puts a
// run's realized metrics.Resource on the same scale as a prediction;
// the planner artifact and graphbench -plan auto print it beside the
// trace.
//
// # Trace format
//
// Every Decision carries its audit trail: the request, the profile,
// every candidate with status/score/source ("calibrated" or "curve")
// and the chosen configuration. Decision.Summary is the
// one-line form (the X-Graphserve-Plan response header);
// Decision.Trace is the multi-line block the graphbench planner
// artifact prints; the struct itself marshals to JSON for /metrics.
//
// # Regenerating the calibration table
//
// model_data.go is generated from a full experiment grid log:
//
//	go run ./cmd/graphbench -grid -log runs.jsonl
//
// at datasets.DefaultScale, then least-squares fitting value(m) =
// a/m + b + c·m per (system, workload, class, axis) over the observed
// cluster sizes, keeping the exact cells alongside the curves.
package plan
