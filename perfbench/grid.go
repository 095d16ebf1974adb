package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"heracles/internal/cache"
	"heracles/internal/core"
	"heracles/internal/experiment"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/machine"
	"heracles/internal/mem"
	"heracles/internal/netlink"
	"heracles/internal/sim"
	"heracles/internal/workload"
)

// The Figure 4/5 grid: every LC workload against every production BE
// workload at ten loads. It drives machine, core and the kernels with no
// engine, root or serving overhead.
var (
	gridLCs = []string{"websearch", "ml_cluster", "memkeyval"}
	gridBEs = []string{"stream-LLC", "stream-DRAM", "cpu_pwr", "brain", "streetview", "iperf"}
)

const (
	gridLoadsN     = 10
	gridPointEpoch = 720 // RunOpts default: 12 simulated minutes of 1 s epochs
	gridWarmup     = 120 // RunOpts default: 2 simulated minutes
	// gridMigrations is how many points per pass are also run with a
	// mid-run checkpoint and restore of the server.
	gridMigrations = 3
	// kernelCalls is how many times the probe calls each kernel per point.
	kernelCalls = 64
)

// gridLoads spans 0.1 to 0.95. The interior points move by up to a
// quarter step with the seed; the top two stay fixed so the iperf rows
// at load >= 0.85 (the BE-disable leak, ROADMAP item 1) stay in the grid.
func gridLoads(seed uint64) []float64 {
	loads := make([]float64, gridLoadsN)
	step := 0.85 / float64(gridLoadsN-1)
	for i := range loads {
		loads[i] = 0.1 + step*float64(i)
		if i > 0 && i < gridLoadsN-2 {
			loads[i] += (sim.DeriveRNG(seed, uint64(i)).Float64() - 0.5) * step / 2
		}
	}
	return loads
}

type gridPoint struct {
	lc, be string
	load   float64
}

func gridPoints(seed uint64) []gridPoint {
	var pts []gridPoint
	loads := gridLoads(seed)
	for _, lc := range gridLCs {
		for _, be := range gridBEs {
			for _, l := range loads {
				pts = append(pts, gridPoint{lc, be, l})
			}
		}
	}
	return pts
}

// gridSetup calibrates a fresh lab: every workload of the grid and the
// offline DRAM model of each LC workload.
func gridSetup() (*experiment.Lab, error) {
	lab := experiment.DefaultLab()
	lab.Workers = 1
	for _, lc := range gridLCs {
		lab.LC(lc)
		lab.DRAMModel(lc)
	}
	for _, be := range gridBEs {
		lab.BE(be)
	}
	return lab, nil
}

func gridOpts() experiment.RunOpts {
	return experiment.RunOpts{UseDRAMModel: true, Workers: 1}
}

// gridPass runs every point through Lab.Colocate, one call per point,
// and returns the points in grid order with each call's CPU time.
func gridPass(lab *experiment.Lab, pts []gridPoint) ([]experiment.Point, []float64, float64) {
	out := make([]experiment.Point, len(pts))
	ms := make([]float64, len(pts))
	for i, p := range pts {
		w := startCPU()
		s := lab.Colocate(p.lc, p.be, []float64{p.load}, gridOpts())
		ms[i] = w.ms()
		out[i] = s.Points[0]
	}
	return out, ms, sumOf(ms)
}

// gridDigest hashes every simulated output of a pass.
func gridDigest(pts []experiment.Point) uint64 {
	h := fnv.New64a()
	for _, p := range pts {
		for _, v := range []float64{p.Load, p.WorstTail, p.AvgTail, p.EMU, p.BEOnlyRate, p.DRAMUtil,
			p.CPUUtil, p.PowerFrac, p.LCNetGBs, p.BENetGBs, p.LinkUtil, float64(p.BECores), float64(p.BEWays)} {
			writeU64(h, math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// gridOutputs summarises a pass: mean EMU, SLO violations, and the iperf
// points at load >= 0.85 where BE keeps running with BE disabled.
func gridOutputs(digest uint64, pts []gridPoint, res []experiment.Point) []string {
	var emu, leakEMU float64
	viol, leakN := 0, 0
	for i, p := range res {
		emu += p.EMU
		if p.SLOViolation {
			viol++
		}
		if pts[i].be == "iperf" && pts[i].load >= 0.85 {
			leakEMU += p.EMU
			leakN++
		}
	}
	return []string{
		fmt.Sprintf("sim_digest=%016x points=%d", digest, len(res)),
		fmt.Sprintf("mean_emu=%.6f slo_violations=%d", emu/float64(len(res)), viol),
		fmt.Sprintf("iperf_load_ge_0.85_mean_emu=%.6f points=%d", leakEMU/float64(max(leakN, 1)), leakN),
	}
}

// pointRun reproduces experiment's per-point loop for one colocation:
// the same machine, controller and epoch sequence as Lab.Colocate, with
// the EMU mean accumulated in the same order. trace times each
// machine.Step and Controller.Step call; migrateAt > 0 checkpoints and
// restores the server (machine and controller) at that epoch.
type pointRun struct {
	lab       *experiment.Lab
	trace     *layerTrace
	migrateAt int
	migrateMs float64
}

// layerTrace accumulates the traced grid loop's per-call timings.
type layerTrace struct {
	machineNs, coreNs []float64
	actions           int
	kernels           kernelProbe
}

func (r *pointRun) run(p gridPoint) (float64, *machine.Machine, error) {
	wl := r.lab.LC(p.lc)
	model := r.lab.DRAMModel(p.lc)
	cfg := core.DefaultConfig()
	m := machine.New(r.lab.Cfg)
	m.SetLC(wl)
	m.AddBE(r.lab.BE(p.be), workload.PlaceDedicated)
	m.SetLoad(p.load)
	ctl := core.New(m, model, cfg)
	if r.trace != nil {
		ctl.OnEvent(func(core.Event) { r.trace.actions++ })
	}
	var sum float64
	n := 0
	for i := 0; i < gridPointEpoch; i++ {
		if i == r.migrateAt && r.migrateAt > 0 {
			w := startCPU()
			m2, ctl2, err := migrateServer(r.lab, m, ctl, model, cfg)
			if err != nil {
				return 0, nil, err
			}
			r.migrateMs = w.ms()
			m, ctl = m2, ctl2
		}
		var t machine.Telemetry
		if r.trace != nil {
			t0 := time.Now()
			t = m.Step()
			t1 := time.Now()
			ctl.Step(m.Clock().Now())
			t2 := time.Now()
			r.trace.machineNs = append(r.trace.machineNs, float64(t1.Sub(t0).Nanoseconds()))
			r.trace.coreNs = append(r.trace.coreNs, float64(t2.Sub(t1).Nanoseconds()))
		} else {
			t = m.Step()
			ctl.Step(m.Clock().Now())
		}
		if i < gridWarmup {
			continue
		}
		sum += t.EMU
		n++
	}
	return sum / float64(n), m, nil
}

// serverState is one server's checkpoint as shipped between hosts.
type serverState struct {
	Machine    machine.Snapshot     `json:"machine"`
	Controller core.ControllerState `json:"controller"`
}

// migrateServer checkpoints a server, ships the checkpoint through its
// JSON encoding and restores it: the single-server migration primitive.
func migrateServer(lab *experiment.Lab, m *machine.Machine, ctl *core.Controller, model core.DRAMModel, cfg core.Config) (*machine.Machine, *core.Controller, error) {
	data, err := json.Marshal(serverState{m.Snapshot(), ctl.Snapshot()})
	if err != nil {
		return nil, nil, fmt.Errorf("encoding server checkpoint: %w", err)
	}
	var st serverState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, nil, fmt.Errorf("decoding server checkpoint: %w", err)
	}
	m2, err := machine.RestoreMachine(st.Machine, lab.LC, lab.BE)
	if err != nil {
		return nil, nil, err
	}
	ctl2 := core.New(m2, model, cfg)
	ctl2.Restore(st.Controller)
	return m2, ctl2, nil
}

func runGrid(o opts) (*report, error) {
	rep := &report{}
	lab, setupS, err := medianSetup(o, gridSetup, func(*experiment.Lab) {})
	if err != nil {
		return nil, err
	}
	pts := gridPoints(o.seed)
	nodeEpochs := float64(len(pts) * gridPointEpoch)
	if o.trace {
		return traceGrid(o, rep, lab, pts, setupS)
	}

	dl := newDeadline(o.budget)
	var (
		passMs, migMs []float64
		opMs          [][]float64 // per pass, per point
		ref           []experiment.Point
		refDigest     uint64
		allocBytes    float64
	)
	sp := newSpeedo()
	for pass := 0; dl.next() || pass < 3; pass++ {
		a0 := heapAlloc()
		res, ms, passT := gridPass(lab, pts)
		allocBytes += float64(heapAlloc() - a0)
		rep.attempted += len(pts)

		d := gridDigest(res)
		if pass == 0 {
			ref, refDigest = res, d
			rep.outputs = gridOutputs(d, pts, res)
		}
		rep.check(d == refDigest, "pass %d: sim_digest %016x differs from the first pass's %016x", pass, d, refDigest)

		// Migrated points must continue exactly as if never moved.
		var passMig []float64
		for k := 0; k < gridMigrations; k++ {
			i := sim.DeriveRNG(o.seed, uint64(1000+pass*gridMigrations+k)).Intn(len(pts))
			r := &pointRun{lab: lab, migrateAt: gridPointEpoch / 2}
			emu, _, err := r.run(pts[i])
			rep.check(err == nil && emu == ref[i].EMU,
				"migrated point %v: EMU %v (err %v), never-moved %v", pts[i], emu, err, ref[i].EMU)
			passMig = append(passMig, r.migrateMs)
		}
		f := sp.next()
		passMs = append(passMs, passT*f)
		opMs = append(opMs, scaled(ms, f))
		migMs = append(migMs, scaled(passMig, f)...)
	}
	rep.outputs = append(rep.outputs, sp.output())
	// Throughput is over the median pass: each point at its median time.
	perOp := opMedians(opMs)
	passS := sumOf(perOp) / 1e3
	rep.set("setup_s", setupS)
	rep.set("node_epochs_per_s", nodeEpochs/passS)
	rep.set("alloc_bytes_per_node_epoch", allocBytes/(float64(len(passMs))*nodeEpochs))
	rep.set("op_p50_ms", quantile(perOp, 0.5))
	rep.set("op_p99_ms", quantile(perOp, 0.99))
	rep.set("max_ops_per_s", float64(len(pts))/passS)
	rep.set("lifecycle_p50_ms", median(passMs))
	rep.set("migrate_p50_ms", median(migMs))
	return rep, nil
}

// traceGrid alternates untraced passes through Lab.Colocate with traced
// passes through pointRun, checks the traced EMU of every point against
// Lab.Colocate bit for bit, and probes the kernels at each point's final
// state.
func traceGrid(o opts, rep *report, lab *experiment.Lab, pts []gridPoint, setupS float64) (*report, error) {
	dl := newDeadline(o.budget)
	var (
		plainMs, tracedMs         []float64
		tr                        layerTrace
		coreSum, machSum, wallSum float64
	)
	for pass := 0; dl.next() || pass < 1; pass++ {
		ref, _, plainT := gridPass(lab, pts)
		plainMs = append(plainMs, plainT)
		rep.attempted += len(pts)
		if pass == 0 {
			rep.outputs = gridOutputs(gridDigest(ref), pts, ref)
		}

		r := &pointRun{lab: lab, trace: &tr}
		m0, c0 := len(tr.machineNs), len(tr.coreNs)
		w, t0 := startCPU(), time.Now()
		var probeMs, probeWall float64
		for i, p := range pts {
			emu, m, err := r.run(p)
			rep.check(err == nil && emu == ref[i].EMU,
				"traced point %v: EMU %v (err %v), Lab.Colocate %v", p, emu, err, ref[i].EMU)
			if pass == 0 && m != nil {
				pw, p0 := startCPU(), time.Now()
				tr.kernels.probe(m)
				probeMs += pw.ms()
				probeWall += float64(time.Since(p0).Nanoseconds())
			}
		}
		tracedMs = append(tracedMs, w.ms()-probeMs)
		wallSum += float64(time.Since(t0).Nanoseconds()) - probeWall
		for _, v := range tr.machineNs[m0:] {
			machSum += v
		}
		for _, v := range tr.coreNs[c0:] {
			coreSum += v
		}
	}
	rep.set("machine.step_ns_p50", quantile(tr.machineNs, 0.5))
	rep.set("machine.step_ns_p99", quantile(tr.machineNs, 0.99))
	rep.set("machine.steps", float64(len(tr.machineNs)))
	rep.set("machine.share", machSum/wallSum)
	rep.set("core.step_ns_p50", quantile(tr.coreNs, 0.5))
	rep.set("core.step_ns_p99", quantile(tr.coreNs, 0.99))
	rep.set("core.steps", float64(len(tr.coreNs)))
	rep.set("core.actions", float64(tr.actions))
	rep.set("core.share", coreSum/wallSum)
	tr.kernels.report(rep)
	rep.set("experiment.calibrate_s", setupS)
	rep.set("trace_overhead_frac", median(tracedMs)/median(plainMs)-1)
	return rep, nil
}

// kernelProbe times the machine model's kernels per call. Their inputs
// are rebuilt from a point's public machine state (core sets, way masks,
// workload specs and the last epoch's telemetry), the way machine.Step
// assembles them.
type kernelProbe struct {
	freqNs, cacheNs, memNs, netNs, latNs []float64

	freqs   []float64
	loads   []hw.CoreLoad
	cacheSc cache.Scratch
	demands []cache.Demand
	memDst  []float64
	memDem  []float64
	netSc   netlink.Scratch
	netDst  [2]float64
}

func (k *kernelProbe) probe(m *machine.Machine) {
	cfg := m.Config()
	lc := m.LC()
	last := m.Last()
	lambda := lc.Load * lc.WL.PeakQPS
	spec := lc.WL.Spec

	// hw: per-core activity and caps of socket 0.
	k.loads = k.loads[:0]
	onLC := make(map[int]bool, len(lc.Cores))
	for _, c := range lc.Cores {
		onLC[c] = true
	}
	for c := 0; c < cfg.CoresPerSocket; c++ {
		var l hw.CoreLoad
		if onLC[c] {
			l.Activity = spec.Activity * math.Max(last.Lat.Utilisation, 0.08)
		}
		for _, be := range m.BEs() {
			if !be.Enabled {
				continue
			}
			for _, bc := range be.Cores {
				if bc == c {
					l.Activity += be.WL.Spec.Activity
					l.CapGHz = be.FreqCapGHz
				}
			}
		}
		k.loads = append(k.loads, l)
	}
	if cap(k.freqs) < len(k.loads) {
		k.freqs = make([]float64, len(k.loads))
	}
	k.freqNs = append(k.freqNs, timeCalls(func() { sink += cfg.ResolveFrequenciesInto(k.freqs, k.loads).PowerWatts }))

	// cache: the LC task in its ways plus each enabled BE task in its own.
	solver := cache.Solver{WayMB: cfg.WayMB(), Ways: cfg.LLCWays}
	lcMask := cache.FullMask(cfg.LLCWays)
	if lc.Ways > 0 {
		lcMask = cache.MaskOfWays(cfg.LLCWays-lc.Ways, lc.Ways)
	}
	loadScale := 1.0
	if spec.RefOutstanding > 0 {
		loadScale = math.Max(lambda*spec.BaseService().Seconds()/spec.RefOutstanding, 0.05)
	}
	k.demands = append(k.demands[:0], cache.Demand{
		AccessRate: lambda * spec.AccessesPerReq / float64(cfg.Sockets),
		Components: spec.CacheComponents,
		WayMask:    lcMask,
		LoadScale:  loadScale,
	})
	for _, be := range m.BEs() {
		if !be.Enabled || be.WL.Spec.AccessRatePerCore <= 0 || len(be.Cores) == 0 {
			continue
		}
		mask := cache.FullMask(cfg.LLCWays)
		if be.Ways > 0 {
			mask = cache.MaskOfWays(0, be.Ways)
		}
		k.demands = append(k.demands, cache.Demand{
			AccessRate: be.WL.Spec.AccessRatePerCore * float64(len(be.Cores)) / float64(cfg.Sockets),
			Components: be.WL.Spec.CacheComponents,
			WayMask:    mask,
		})
	}
	var shares []cache.Share
	k.cacheNs = append(k.cacheNs, timeCalls(func() { shares = solver.ResolveScratch(&k.cacheSc, k.demands) }))

	// mem: the cache solve's miss traffic on one socket.
	k.memDem = k.memDem[:0]
	for _, s := range shares {
		k.memDem = append(k.memDem, s.MissRate*64/1e9)
	}
	if cap(k.memDst) < len(k.memDem) {
		k.memDst = make([]float64, len(k.memDem))
	}
	k.memNs = append(k.memNs, timeCalls(func() { sink += mem.ResolveInto(k.memDst, cfg.DRAMGBs, k.memDem).Inflation }))

	// netlink: the LC class against the BE class under its ceiling.
	var beDemand float64
	var beFlows int
	for _, be := range m.BEs() {
		if be.Enabled {
			beDemand += be.WL.Spec.NetDemandGBs
			beFlows += be.WL.Spec.NetFlows
		}
	}
	classes := []netlink.Class{
		{DemandGBs: lambda * spec.BytesPerReq / 1e9, Flows: max(spec.Flows, 1)},
		{DemandGBs: beDemand, Flows: beFlows, CeilGBs: m.BENetCeil()},
	}
	k.netNs = append(k.netNs, timeCalls(func() {
		sink += netlink.ResolveInto(k.netDst[:], &k.netSc, cfg.LinkGBs(), classes).Utilisation
	}))

	// lat: the analytic latency engine at the point's load and core count.
	params := lat.ServiceParams{Mean: last.Lat.Mean, Sigma: spec.Sigma, TailProb: 0.2}
	if params.Mean <= 0 {
		params.Mean = spec.BaseService()
	}
	servers := max(len(lc.Cores), 1)
	var eng lat.Analytic
	k.latNs = append(k.latNs, timeCalls(func() {
		sink += float64(eng.Epoch(params, lambda, servers, m.Epoch()).P99)
	}))
}

func (k *kernelProbe) report(rep *report) {
	rep.set("hw.resolve_freq_ns", median(k.freqNs))
	rep.set("cache.resolve_ns", median(k.cacheNs))
	rep.set("mem.resolve_ns", median(k.memNs))
	rep.set("netlink.resolve_ns", median(k.netNs))
	rep.set("lat.epoch_ns", median(k.latNs))
}

// timeCalls returns the mean host time of one call of fn, in ns.
func timeCalls(fn func()) float64 {
	fn() // warm scratch buffers
	t0 := time.Now()
	for i := 0; i < kernelCalls; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / kernelCalls
}

// opMedians takes one latency per op per repeat and returns each op's
// median over the repeats. Batch workloads run the same ops every pass,
// so their latency quantiles are taken over these per-op medians: the
// tail says which ops are slow, not when the host was busy.
func opMedians(runs [][]float64) []float64 {
	out := make([]float64, len(runs[0]))
	col := make([]float64, len(runs))
	for i := range out {
		for r := range runs {
			col[r] = runs[r][i]
		}
		out[i] = median(col)
	}
	return out
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func writeU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}
