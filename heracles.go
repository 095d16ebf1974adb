// Package heracles is a faithful reimplementation of Heracles — the
// feedback controller from "Heracles: Improving Resource Efficiency at
// Scale" (Lo, Cheng, Govindaraju, Ranganathan, Kozyrakis; ISCA 2015) —
// together with everything needed to reproduce the paper's evaluation:
// a simulated dual-socket server (cores, hyperthreads, CAT-partitioned
// LLC, DRAM controllers, RAPL/DVFS power, HTB-shaped NIC), calibrated
// models of the paper's three latency-critical and six best-effort
// workloads, baseline policies, a fan-out cluster simulator, a TCO model,
// experiment harnesses for every figure and table, and a control plane
// that serves live controller-managed machines over HTTP (REST + SSE +
// Prometheus; see ServeConfig and cmd/heraclesd).
//
// # Quick start
//
//	lab := heracles.NewLab(heracles.DefaultHardware())
//	series := lab.Colocate("websearch", "brain", []float64{0.2, 0.5, 0.8},
//	    heracles.RunOpts{})
//	fmt.Println(series)
//
// The controller itself (heracles.Controller) is written against the Env
// interface, so the same control logic drives either the simulated
// machine or filesystem actuators (resctrl/cgroup/cpufreq/tc formats) on
// real hardware.
package heracles

import (
	"heracles/internal/actuate"
	"heracles/internal/chash"
	"heracles/internal/cluster"
	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/fed"
	"heracles/internal/fleet"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/serve"
	"heracles/internal/tco"
	"heracles/internal/trace"
	"heracles/internal/workload"
)

// Hardware description.
type (
	// HardwareConfig describes the modelled server (sockets, cores,
	// LLC ways, DRAM bandwidth, TDP, NIC rate).
	HardwareConfig = hw.Config
	// CPUID identifies a logical CPU.
	CPUID = hw.CPUID
)

// DefaultHardware returns the dual-socket Haswell-class server of the
// paper's testbed (§3.2).
func DefaultHardware() HardwareConfig { return hw.DefaultConfig() }

// CompactHardware returns the single-socket efficiency generation mixed
// into heterogeneous fleet experiments.
func CompactHardware() HardwareConfig { return hw.CompactConfig() }

// Workload models.
type (
	// LCSpec describes a latency-critical workload before calibration.
	LCSpec = workload.LCSpec
	// LC is a calibrated latency-critical workload.
	LC = workload.LC
	// BESpec describes a best-effort workload or antagonist.
	BESpec = workload.BESpec
	// BE is a calibrated best-effort workload.
	BE = workload.BE
	// PlacementKind selects dedicated, hyperthread-sibling or OS-shared
	// placement for a BE task.
	PlacementKind = workload.PlacementKind
)

// Placement kinds (§3.2 experiment setups).
const (
	PlaceDedicated = workload.PlaceDedicated
	PlaceHTSibling = workload.PlaceHTSibling
	PlaceOSShared  = workload.PlaceOSShared
)

// Workload constructors (paper §3.1 and §5.1).
var (
	Websearch  = workload.Websearch
	MLCluster  = workload.MLCluster
	Memkeyval  = workload.Memkeyval
	StreamLLC  = workload.StreamLLC
	StreamDRAM = workload.StreamDRAM
	CPUPower   = workload.CPUPower
	Iperf      = workload.Iperf
	Brain      = workload.Brain
	Streetview = workload.Streetview
)

// Machine simulation.
type (
	// Machine is the simulated server hosting one LC task and any number
	// of BE tasks; it satisfies the controller's Env interface.
	Machine = machine.Machine
	// Telemetry is one epoch's monitor readings.
	Telemetry = machine.Telemetry
	// MachineOption configures a Machine.
	MachineOption = machine.Option
)

// Machine constructors and calibration.
var (
	// NewMachine builds a simulated server.
	NewMachine = machine.New
	// WithEngine selects the latency engine (analytic or DES).
	WithEngine = machine.WithEngine
	// WithEpoch sets the resolution epoch.
	WithEpoch = machine.WithEpoch
	// CalibrateLC calibrates an LC spec on given hardware (SLO, peak QPS,
	// guaranteed frequency).
	CalibrateLC = machine.CalibrateLC
	// SpecOf adapts an LCSpec for CalibrateLC.
	SpecOf = machine.SpecOf
	// CalibrateBE measures a BE spec running alone (EMU normalisation).
	CalibrateBE = machine.CalibrateBE
)

// Latency engines.
type (
	// LatencyEngine evaluates the LC queue each epoch.
	LatencyEngine = lat.Engine
	// AnalyticEngine is the closed-form M/G/k engine.
	AnalyticEngine = lat.Analytic
	// DESEngine is the discrete-event simulation engine.
	DESEngine = lat.DES
)

// NewDES returns a seeded discrete-event latency engine.
var NewDES = lat.NewDES

// The Heracles controller (the paper's contribution, §4).
type (
	// Controller is the four-mechanism feedback controller.
	Controller = core.Controller
	// ControllerConfig carries Algorithm 1-4 constants.
	ControllerConfig = core.Config
	// Env is everything the controller monitors and actuates.
	Env = core.Env
	// DRAMModel is the offline LC bandwidth model (§4.2).
	DRAMModel = core.DRAMModel
	// DRAMModelFunc adapts a function to DRAMModel.
	DRAMModelFunc = core.DRAMModelFunc
	// ControllerEvent records one controller decision.
	ControllerEvent = core.Event
)

var (
	// NewController binds a controller to an environment.
	NewController = core.New
	// DefaultControllerConfig returns the paper's constants.
	DefaultControllerConfig = core.DefaultConfig
)

// Experiments (one per paper figure/table).
type (
	// Lab caches calibrated workloads and runs the experiments.
	Lab = experiment.Lab
	// RunOpts configures colocation runs.
	RunOpts = experiment.RunOpts
	// Series is a load sweep for one LC/BE pair.
	Series = experiment.Series
	// Fig1Table is an interference characterisation table.
	Fig1Table = experiment.Fig1Table
	// Fig3Surface is the cores x LLC performance surface.
	Fig3Surface = experiment.Fig3Surface
	// DRAMTable is the profiled offline DRAM model.
	DRAMTable = experiment.DRAMTable
)

var (
	// NewLab builds a lab for the given hardware.
	NewLab = experiment.NewLab
	// DefaultLab builds a lab on the reference hardware.
	DefaultLab = experiment.DefaultLab
	// DefaultLoads returns the 19 load points of Figure 1.
	DefaultLoads = experiment.DefaultLoads
)

// Cluster experiment (§5.3, Figure 8).
type (
	// ClusterConfig describes a fan-out cluster run.
	ClusterConfig = cluster.Config
	// ClusterResult is a full cluster run.
	ClusterResult = cluster.Result
	// ClusterSummary aggregates a run.
	ClusterSummary = cluster.Summary
	// LoadTrace is a time-ordered load trace.
	LoadTrace = trace.Trace
	// DiurnalConfig parameterises the synthetic diurnal trace.
	DiurnalConfig = trace.DiurnalConfig
)

var (
	// RunCluster replays a load trace against the cluster.
	RunCluster = cluster.Run
	// RunClusterScenario drives the cluster through a declarative
	// scenario (load shape + timed events).
	RunClusterScenario = cluster.RunScenario
	// RunClusterScenarioFrom resumes a checkpointed cluster run: same
	// Config and scenario, continuation bit-identical to an
	// uninterrupted run.
	RunClusterScenarioFrom = cluster.RunScenarioFrom
	// DiurnalTrace synthesises the §5.3 12-hour load trace.
	DiurnalTrace = trace.Diurnal
	// ConstantTrace returns a flat load trace.
	ConstantTrace = trace.Constant
)

// Unified epoch engine (DESIGN.md §11): the canonical loop both the
// batch (cluster/fleet) and live (serve) layers drive, with
// checkpoint/restore of the full simulation state.
type (
	// Engine owns the canonical epoch loop over a set of machines.
	Engine = engine.Engine
	// EngineConfig describes an engine (nodes, workloads, subsystems).
	EngineConfig = engine.Config
	// EngineEpochResult is everything one Step produced.
	EngineEpochResult = engine.EpochResult
	// EngineCheckpoint is the versioned serialized simulation state.
	EngineCheckpoint = engine.Checkpoint
	// InstanceCheckpoint is a live instance's checkpoint wire form.
	InstanceCheckpoint = serve.InstanceCheckpoint
)

var (
	// NewEngine builds an engine.
	NewEngine = engine.New
	// RestoreEngine rebuilds an engine from a checkpoint; the
	// continuation is bit-identical to an uninterrupted run.
	RestoreEngine = engine.Restore
	// ReadCheckpoint loads a checkpoint file persisted with
	// EngineCheckpoint.WriteFile, verifying its CRC-32C frame first; any
	// other file (JSON, an instance checkpoint, a corrupt one) is an
	// error.
	ReadCheckpoint = engine.ReadFile
)

// Scenario engine: declarative load shapes and timed events.
type (
	// Scenario composes a load shape with an event schedule.
	Scenario = scenario.Scenario
	// LoadShape is a composable load-vs-time function.
	LoadShape = scenario.Shape
	// ScenarioEvent is one timed action (BE churn, degradation,
	// SLO/load-target change).
	ScenarioEvent = scenario.Event
	// FlatLoad is a constant load shape.
	FlatLoad = scenario.Flat
	// StepLoads is a piecewise-constant shape (§5.2 load changes).
	StepLoads = scenario.Steps
	// LoadLevel is one plateau of a StepLoads shape.
	LoadLevel = scenario.Level
	// RampLoad interpolates linearly between two loads.
	RampLoad = scenario.Ramp
	// FlashCrowdLoad is an additive trapezoid spike.
	FlashCrowdLoad = scenario.FlashCrowd
)

// AllLeaves targets every leaf in a scenario event.
const AllLeaves = scenario.AllLeaves

var (
	// ScenarioFromTrace wraps a bare trace as an event-free scenario.
	ScenarioFromTrace = scenario.FromTrace
	// ReplayShape wraps a trace as a load shape.
	ReplayShape = scenario.Replay
	// DiurnalShape synthesises a diurnal load shape.
	DiurnalShape = scenario.Diurnal
	// SumShapes adds shapes pointwise (overlay a flash crowd on a base).
	SumShapes = scenario.Sum
	// ScaleShape multiplies a shape by a constant.
	ScaleShape = scenario.Scale
	// ClampShape bounds a shape to [lo, hi].
	ClampShape = scenario.Clamp
	// BEArriveEvent schedules a best-effort task launch.
	BEArriveEvent = scenario.BEArrive
	// BEDepartEvent schedules a best-effort task departure.
	BEDepartEvent = scenario.BEDepart
	// DegradeEvent schedules a per-leaf service-time degradation.
	DegradeEvent = scenario.Degrade
	// SLOScaleEvent schedules a latency-target change.
	SLOScaleEvent = scenario.SLOScale
	// LoadScaleEvent schedules an offered-load multiplier change.
	LoadScaleEvent = scenario.LoadScale
)

// Fleet simulation: many heterogeneous clusters, baseline vs Heracles.
type (
	// FleetConfig describes a fleet experiment.
	FleetConfig = fleet.Config
	// FleetClusterSpec is one homogeneous slice of the fleet.
	FleetClusterSpec = fleet.ClusterSpec
	// FleetResult is a full fleet run with TCO analysis.
	FleetResult = fleet.Result
	// FleetOutcome is one cluster's paired baseline/Heracles summary.
	FleetOutcome = fleet.Outcome
	// FleetAggregate reduces the fleet to §5.2/§5.3 quantities.
	FleetAggregate = fleet.Aggregate
)

// RunFleet executes every cluster of the fleet, baseline and Heracles,
// and aggregates utilisation, SLO compliance and TCO.
var RunFleet = fleet.Run

// Best-effort job scheduler: fleet-wide dispatch onto slack-advertising
// machines, eviction with backoff, goodput accounting.
type (
	// SchedConfig configures a job scheduler (policy, job batch, seed,
	// backoff, eviction grace).
	SchedConfig = sched.Config
	// SchedJobSpec describes one best-effort job (workload, core demand,
	// required CPU work, priority, retry budget, submission time).
	SchedJobSpec = sched.JobSpec
	// SchedJob is a submitted job and its dispatch history.
	SchedJob = sched.Job
	// SchedPolicy places jobs on eligible machines.
	SchedPolicy = sched.Policy
	// SchedNodeState is one machine's slack/EMU advertisement.
	SchedNodeState = sched.NodeState
	// SchedAction is one executor instruction returned by a tick.
	SchedAction = sched.Action
	// SchedDecision is one placement-log entry.
	SchedDecision = sched.Decision
	// SchedAccounting aggregates goodput vs wasted BE CPU time.
	SchedAccounting = sched.Accounting
	// SchedReport is a finished run's scheduler artefact.
	SchedReport = sched.Report
	// Scheduler is the deterministic dispatch loop itself.
	Scheduler = sched.Scheduler
	// FleetPoliciesResult is a paired policy-vs-policy fleet comparison.
	FleetPoliciesResult = fleet.PoliciesResult
	// FleetPolicyOutcome is one arm of that comparison.
	FleetPolicyOutcome = fleet.PolicyOutcome
	// FleetSchedAggregate is the fleet-level scheduler reduction.
	FleetSchedAggregate = fleet.SchedAggregate
)

var (
	// NewScheduler builds a scheduler from a SchedConfig.
	NewScheduler = sched.New
	// SchedPolicyByName resolves "slack-greedy", "bin-pack", "spread" or
	// "random".
	SchedPolicyByName = sched.PolicyByName
	// SchedPolicyNames lists the built-in policies.
	SchedPolicyNames = sched.PolicyNames
	// SyntheticJobs generates a deterministic batch of BE jobs.
	SyntheticJobs = sched.SyntheticJobs
	// RunFleetPolicies runs the fleet once per placement policy, paired
	// on seeds, with goodput/queue-delay aggregates per arm.
	RunFleetPolicies = fleet.RunPolicies
)

// TCO analysis (§5.3).
type (
	// TCOParams are the Barroso cost-model inputs.
	TCOParams = tco.Params
	// TCOComparison is one §5.3 scenario.
	TCOComparison = tco.Comparison
)

var (
	// BarrosoTCO returns the paper's cost parameters.
	BarrosoTCO = tco.Barroso
	// AnalyzeTCO reproduces the §5.3 scenarios.
	AnalyzeTCO = tco.Analyze
)

// Control plane: live machine instances served over HTTP (REST + SSE +
// Prometheus). cmd/heraclesd is the thin daemon over this layer; see
// docs/API.md for the wire surface.
type (
	// ServeConfig configures a control-plane server.
	ServeConfig = serve.Config
	// ServeServer owns the instance pool and the HTTP API over it.
	ServeServer = serve.Server
	// ServeInstance is one live simulated machine with its controller.
	ServeInstance = serve.Instance
	// ServeInstanceSpec configures a new live instance.
	ServeInstanceSpec = serve.InstanceSpec
	// ServeBEAttachment names a best-effort task on an instance.
	ServeBEAttachment = serve.BEAttachment
	// ServeStatus is a point-in-time instance snapshot.
	ServeStatus = serve.Status
	// ServeEpochUpdate is the per-epoch telemetry summary streamed over
	// SSE.
	ServeEpochUpdate = serve.EpochUpdate
	// ServeScenarioSpec is the JSON encoding of a declarative scenario.
	ServeScenarioSpec = serve.ScenarioSpec
	// ServeShardStatus is one control-plane shard's accounting snapshot.
	ServeShardStatus = serve.ShardStatus
	// ServeMigrateRequest names a migration destination (shard or peer).
	ServeMigrateRequest = serve.MigrateRequest
	// ServeMigrateResult reports a completed instance migration.
	ServeMigrateResult = serve.MigrateResult
)

// ServeSpeedMax requests free-running simulation for an instance.
const ServeSpeedMax = serve.SpeedMax

var (
	// NewServer builds a control-plane server and its route table.
	NewServer = serve.New
	// ServeRoutes lists every registered API endpoint.
	ServeRoutes = serve.Routes
)

// Federation: one API over several control-plane daemons, with
// consistent-hash placement and live cross-daemon migration
// (DESIGN.md §14). cmd/heraclesfed is the thin daemon over this layer.
type (
	// FedConfig configures a federation router.
	FedConfig = fed.Config
	// FedRouter proxies instance and job traffic across member daemons.
	FedRouter = fed.Router
	// FedInstanceInfo is a member instance viewed through the router.
	FedInstanceInfo = fed.InstanceInfo
	// ChashTable is an immutable rendezvous-hash placement table.
	ChashTable = chash.Table
)

var (
	// NewFedRouter builds a federation router over member base URLs.
	NewFedRouter = fed.NewRouter
	// FedRoutes lists every registered federation endpoint.
	FedRoutes = fed.Routes
	// NewChashTable builds a rendezvous-hash table over members.
	NewChashTable = chash.New
)

// Filesystem actuation (kernel interface formats).
type (
	// FSActuator writes resctrl/cgroup/cpufreq/tc files.
	FSActuator = actuate.FSActuator
	// FSLayout holds the file-tree layout.
	FSLayout = actuate.Layout
)

var (
	// NewFSActuator returns an actuator rooted at a directory.
	NewFSActuator = actuate.NewFS
	// DefaultFSLayout mirrors the standard Linux mount points.
	DefaultFSLayout = actuate.DefaultLayout
)
