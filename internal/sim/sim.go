// Package sim models the shared-nothing cluster on which every engine in
// this repository runs: N machines of the paper's EC2 r3.xlarge shape
// (4 cores, 30.5 GB, SSD, 1 GbE), a simulated clock, a per-machine
// memory ledger, and CPU/disk/network accounting.
//
// Engines perform real computation on the synthetic graphs but charge
// modeled resources here. The charges are expressed at paper scale
// (engines multiply counts by the dataset's ScaleFactor), so modeled
// times and memory are directly comparable to the paper's reported
// values, and the paper's failure matrix — OOM when a machine's ledger
// exceeds capacity, TO at the 24-hour timeout — falls out of the same
// mechanics that produced it on the real clusters.
package sim

import "fmt"

// Hardware constants of the paper's instance type (§4.1).
const (
	CoresPerMachine  = 4
	MemoryPerMachine = int64(30.5 * float64(GB))

	// GB is 2^30 bytes.
	GB = 1 << 30
	// MB is 2^20 bytes.
	MB = 1 << 20

	// TimeoutSeconds is the paper's 24-hour execution cap (§5).
	TimeoutSeconds = 24 * 3600.0
)

// Config describes a cluster.
type Config struct {
	Machines    int
	Cores       int     // per machine
	MemoryBytes int64   // per machine
	NetBW       float64 // bytes/sec per machine NIC
	DiskBW      float64 // bytes/sec per machine SSD
	BarrierLat  float64 // seconds per global synchronization barrier
	Timeout     float64 // seconds of simulated time before TO
}

// NewConfig returns the r3.xlarge cluster of the paper with n machines.
func NewConfig(n int) Config {
	return Config{
		Machines:    n,
		Cores:       CoresPerMachine,
		MemoryBytes: MemoryPerMachine,
		NetBW:       120 * float64(MB), // ~1 GbE effective
		DiskBW:      250 * float64(MB), // SSD sequential
		BarrierLat:  0.05,
		Timeout:     TimeoutSeconds,
	}
}

// Machine is one cluster node. All quantities are modeled (paper-scale).
type Machine struct {
	ID int

	memUsed int64
	memPeak int64

	CPUUser float64 // seconds spent computing
	CPUIO   float64 // seconds waiting on disk
	CPUNet  float64 // seconds waiting on network
	CPUIdle float64 // seconds waiting at barriers

	NetSent   int64
	NetRecv   int64
	DiskRead  int64
	DiskWrite int64
}

// MemUsed returns the machine's current modeled allocation.
func (m *Machine) MemUsed() int64 { return m.memUsed }

// MemPeak returns the machine's peak modeled allocation.
func (m *Machine) MemPeak() int64 { return m.memPeak }

// Cluster is a simulated shared-nothing cluster.
type Cluster struct {
	cfg      Config
	clock    float64
	machines []*Machine
	samples  []MemSample
	sampling bool
	busy     []float64 // RunStep scratch, reused so steps allocate nothing
	injector Injector
}

// Injector decides whether a fault occurs at a superstep/job boundary.
// Engines cross boundaries via Cluster.Boundary; internal/chaos
// provides seeded, deterministic, one-shot injectors.
type Injector interface {
	// NextFault is consulted once per boundary crossing with the
	// engine's boundary index (superstep for BSP engines, job index for
	// MapReduce chains, iteration or stage for GraphX) and the cluster
	// size. It returns the failure to inject, or nil.
	NextFault(boundary, machines int) *Failure
}

// SetInjector installs a fault injector the cluster consults at every
// Boundary crossing. A nil injector (the default) disables injection.
func (c *Cluster) SetInjector(inj Injector) { c.injector = inj }

// Boundary marks the end of superstep/job/stage boundary i — the
// points where a machine failure is detectable and, for systems with
// fault tolerance, survivable. It returns the injected failure, if the
// installed injector chose this boundary, and nil otherwise.
func (c *Cluster) Boundary(i int) error {
	if c.injector == nil {
		return nil
	}
	if f := c.injector.NextFault(i, len(c.machines)); f != nil {
		return f
	}
	return nil
}

// MemSample is a point-in-time snapshot of per-machine memory, used for
// the paper's memory-timeline figures (Figure 10).
type MemSample struct {
	Time    float64
	PerMach []int64
}

// New creates a cluster from cfg.
func New(cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		panic("sim: cluster needs at least one machine")
	}
	c := &Cluster{cfg: cfg}
	c.machines = make([]*Machine, cfg.Machines)
	for i := range c.machines {
		c.machines[i] = &Machine{ID: i}
	}
	return c
}

// NewSize creates the paper's cluster with n machines.
func NewSize(n int) *Cluster { return New(NewConfig(n)) }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.machines) }

// TotalCores returns cores across the cluster.
func (c *Cluster) TotalCores() int { return c.cfg.Cores * len(c.machines) }

// Machine returns machine i.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }

// Machines returns all machines. The slice must not be modified.
func (c *Cluster) Machines() []*Machine { return c.machines }

// Clock returns the simulated time in seconds.
func (c *Cluster) Clock() float64 { return c.clock }

// EnableSampling turns on per-step memory snapshots.
func (c *Cluster) EnableSampling() { c.sampling = true }

// Samples returns the collected memory snapshots.
func (c *Cluster) Samples() []MemSample { return c.samples }

// Sample records a memory snapshot at the current clock if sampling is on.
func (c *Cluster) Sample() {
	if !c.sampling {
		return
	}
	per := make([]int64, len(c.machines))
	for i, m := range c.machines {
		per[i] = m.memUsed
	}
	c.samples = append(c.samples, MemSample{Time: c.clock, PerMach: per})
}

// Alloc charges bytes of modeled memory to machine i, failing with an
// OOM Failure when the machine exceeds capacity — the paper's most
// common failure mode.
func (c *Cluster) Alloc(i int, bytes int64) error {
	m := c.machines[i]
	m.memUsed += bytes
	if m.memUsed > m.memPeak {
		m.memPeak = m.memUsed
	}
	if m.memUsed > c.cfg.MemoryBytes {
		return &Failure{Status: OOM, Machine: i,
			Detail: fmt.Sprintf("allocated %.1f GB > %.1f GB capacity",
				float64(m.memUsed)/float64(GB), float64(c.cfg.MemoryBytes)/float64(GB))}
	}
	return nil
}

// AllocAll charges the same number of bytes on every machine.
func (c *Cluster) AllocAll(bytes int64) error {
	for i := range c.machines {
		if err := c.Alloc(i, bytes); err != nil {
			return err
		}
	}
	return nil
}

// Free releases modeled memory on machine i. Releasing more than is held
// clamps to zero; the ledger is a model, not an allocator.
func (c *Cluster) Free(i int, bytes int64) {
	m := c.machines[i]
	m.memUsed -= bytes
	if m.memUsed < 0 {
		m.memUsed = 0
	}
}

// FreeAll releases bytes on every machine.
func (c *Cluster) FreeAll(bytes int64) {
	for i := range c.machines {
		c.Free(i, bytes)
	}
}

// TotalMemPeak sums peak memory across machines (Table 8).
func (c *Cluster) TotalMemPeak() int64 {
	var t int64
	for _, m := range c.machines {
		t += m.memPeak
	}
	return t
}

// MaxMemPeak returns the highest per-machine peak.
func (c *Cluster) MaxMemPeak() int64 {
	var t int64
	for _, m := range c.machines {
		if m.memPeak > t {
			t = m.memPeak
		}
	}
	return t
}

// TotalNetBytes returns bytes sent across the cluster.
func (c *Cluster) TotalNetBytes() int64 {
	var t int64
	for _, m := range c.machines {
		t += m.NetSent
	}
	return t
}

// StepCost is one machine's share of a parallel step.
type StepCost struct {
	ComputeSeconds float64
	DiskReadBytes  float64
	DiskWriteBytes float64
	NetSendBytes   float64
	NetRecvBytes   float64
}

// RunStep executes one synchronized parallel step: each machine works for
// its own compute+disk+network time, then all wait at a barrier. The
// step's wall time is the slowest machine plus barrier latency — the BSP
// straggler effect that drives several of the paper's findings. It
// returns a TO Failure if the simulated clock passes the timeout.
func (c *Cluster) RunStep(costs []StepCost) error {
	if len(costs) != len(c.machines) {
		panic(fmt.Sprintf("sim: RunStep got %d costs for %d machines", len(costs), len(c.machines)))
	}
	slowest := 0.0
	if c.busy == nil {
		c.busy = make([]float64, len(costs))
	}
	busy := c.busy
	for i, sc := range costs {
		disk := (sc.DiskReadBytes + sc.DiskWriteBytes) / c.cfg.DiskBW
		net := maxf(sc.NetSendBytes, sc.NetRecvBytes) / c.cfg.NetBW
		total := sc.ComputeSeconds + disk + net
		busy[i] = total
		if total > slowest {
			slowest = total
		}
		m := c.machines[i]
		m.CPUUser += sc.ComputeSeconds
		m.CPUIO += disk
		m.CPUNet += net
		m.NetSent += int64(sc.NetSendBytes)
		m.NetRecv += int64(sc.NetRecvBytes)
		m.DiskRead += int64(sc.DiskReadBytes)
		m.DiskWrite += int64(sc.DiskWriteBytes)
	}
	step := slowest + c.cfg.BarrierLat
	for i := range c.machines {
		c.machines[i].CPUIdle += step - busy[i]
	}
	c.clock += step
	c.Sample()
	if c.clock > c.cfg.Timeout {
		return &Failure{Status: TO, Detail: fmt.Sprintf("simulated clock %.0fs past %.0fs timeout", c.clock, c.cfg.Timeout)}
	}
	return nil
}

// UniformStep runs a step where every machine bears the same cost.
func (c *Cluster) UniformStep(cost StepCost) error {
	costs := make([]StepCost, len(c.machines))
	for i := range costs {
		costs[i] = cost
	}
	return c.RunStep(costs)
}

// ShuffleRead runs the load step of the hash-partitioned engines: every
// machine reads its 1/m slice of a file of the given size from disk,
// parses it for parseSeconds, and exchanges the (m-1)/m of it that
// hashes to another machine.
func (c *Cluster) ShuffleRead(bytes int64, parseSeconds float64) error {
	m := float64(len(c.machines))
	per := float64(bytes) / m
	return c.UniformStep(StepCost{
		ComputeSeconds: parseSeconds,
		DiskReadBytes:  per,
		NetSendBytes:   per * (m - 1) / m,
		NetRecvBytes:   per * (m - 1) / m,
	})
}

// Advance moves the clock forward without charging any machine — used
// for framework overheads (job scheduling, teardown).
func (c *Cluster) Advance(seconds float64) error {
	c.clock += seconds
	if c.clock > c.cfg.Timeout {
		return &Failure{Status: TO, Detail: "timeout during framework overhead"}
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
