package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"time"

	"heracles/internal/cluster"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/fault"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/sim"
	"heracles/internal/slo"
	"heracles/internal/trace"
	"heracles/internal/workload"
)

const (
	churnLeaves  = 20
	churnHorizon = time.Hour
	churnJobs    = 256
	// churnFaults is the count of each of the five fault kinds.
	churnFaults = 3
	// churnMigrations is how many times each engine loop migrates.
	churnMigrations = 4
)

// churnCase is one seed's cluster-churn input: a diurnal load with a
// flash crowd, SLO-retarget and load-scale events, a synthetic job
// stream under slack-greedy with SLO admission, and every fault kind.
type churnCase struct {
	cfg  cluster.Config
	sc   scenario.Scenario
	ecfg engine.Config
	// eng is built by set-up (its root-SLO calibration is set-up work)
	// and consumed by the first engine-loop run.
	eng *engine.Engine
}

func newChurnCase(seed uint64) *churnCase {
	rng := sim.DeriveRNG(seed, 0x6368)
	lab := experiment.DefaultLab()
	lab.Workers = 1
	lc, brain, sview := lab.LC("websearch"), lab.BE("brain"), lab.BE("streetview")
	model := lab.DRAMModel("websearch")

	minute := func(lo, hi float64) time.Duration {
		return time.Duration((lo + rng.Float64()*(hi-lo)) * float64(time.Minute))
	}
	load := scenario.Sum(
		scenario.Diurnal(trace.DiurnalConfig{Duration: churnHorizon, Step: time.Second, Seed: seed}),
		scenario.FlashCrowd{Start: minute(20, 35), Rise: time.Minute, Hold: minute(2, 5), Fall: 2 * time.Minute, Amp: 0.15 + 0.15*rng.Float64()},
	)
	sc := scenario.Scenario{
		Name:     "churn",
		Duration: churnHorizon,
		Load:     scenario.Clamp(load, 0, 1),
		Events: []scenario.Event{
			scenario.SLOScale(minute(12, 18), scenario.AllLeaves, 0.7),
			scenario.LoadScale(minute(38, 44), 1.1),
			scenario.SLOScale(minute(48, 52), scenario.AllLeaves, 0.8),
			scenario.LoadScale(minute(52, 56), 1.0),
		},
	}
	plan := fault.Generate(fault.GenConfig{
		Seed: seed, Nodes: churnLeaves, Horizon: churnHorizon,
		Crashes: churnFaults, Blackouts: churnFaults, Slowdowns: churnFaults,
		ActuationFails: churnFaults, BEKills: churnFaults,
	})
	cfg := cluster.Config{
		Leaves:   churnLeaves,
		Heracles: true,
		HW:       lab.Cfg,
		LC:       lc,
		Brain:    brain,
		SView:    sview,
		Seed:     seed,
		Model:    model,
		Workers:  1,
		Faults:   plan.Faults,
		Sched: &sched.Config{
			Policy: sched.SlackGreedy{},
			Jobs:   sched.SyntheticJobs(churnJobs, churnHorizon, seed, []string{"brain", "streetview"}),
		},
		Budget: &slo.Config{Admission: true},
	}
	return &churnCase{cfg: cfg, sc: sc, ecfg: churnEngineConfig(cfg)}
}

// churnEngineConfig is the engine configuration cluster.RunScenario
// derives from cfg, spelled out so the benchmark can drive engine.Step
// itself: cluster's defaults (200 root samples, 0.8 leaf target, 30 s
// adjust period) and its BE catalogue of brain and streetview.
func churnEngineConfig(cfg cluster.Config) engine.Config {
	return engine.Config{
		Nodes:    cfg.Leaves,
		HW:       cfg.HW,
		LC:       cfg.LC,
		Heracles: true,
		Model:    cfg.Model,
		LookupBE: func(name string) *workload.BE {
			switch name {
			case cfg.Brain.Spec.Name:
				return cfg.Brain
			case cfg.SView.Spec.Name:
				return cfg.SView
			}
			return nil
		},
		RootSamples:  200,
		Seed:         cfg.Seed,
		AdjustPeriod: 30 * time.Second,
		Workers:      cfg.Workers,
		Faults:       cfg.Faults,
		SLO:          cfg.Budget,
		SLOScale:     0.8,
		Sched:        cfg.Sched,
	}
}

// churnRun is one engine-loop pass over the scenario: per-epoch host
// times, the statistics, and optionally the engine's phase spans.
type churnRun struct {
	epochs  []engine.EpochStat
	stepMs  []float64
	acct    sched.Accounting
	migMs   []float64
	spans   engine.StepSpans
	events  int
	faults  int
	trans   int
	decided int
	cpuS    float64
}

// engineLoop drives eng to the scenario horizon the way cluster.RunScenario
// does. At each epoch in migrateAt, in ascending order, it checkpoints
// the engine, ships the checkpoint through the binary codec and continues
// on the restored engine. traced accumulates the phase spans Step
// already returns.
func (c *churnCase) engineLoop(eng *engine.Engine, migrateAt []int, traced bool) (*churnRun, error) {
	r := &churnRun{}
	w := startCPU()
	for eng.Now() < c.sc.Duration {
		if len(migrateAt) > 0 && len(r.epochs) == migrateAt[0] {
			migrateAt = migrateAt[1:]
			mw := startCPU()
			cp, err := engine.DecodeCheckpointBinary(eng.Snapshot().EncodeBinary())
			if err != nil {
				return nil, fmt.Errorf("decoding engine checkpoint: %w", err)
			}
			next, err := engine.Restore(c.ecfg, cp, &c.sc)
			if err != nil {
				return nil, fmt.Errorf("restoring engine: %w", err)
			}
			r.migMs = append(r.migMs, mw.ms())
			eng.Close()
			eng = next
		}
		sw := startCPU()
		er := eng.Step()
		r.stepMs = append(r.stepMs, sw.ms())
		r.epochs = append(r.epochs, er.Stat)
		if traced {
			r.spans.EventsNs += er.Spans.EventsNs
			r.spans.SchedNs += er.Spans.SchedNs
			r.spans.NodesNs += er.Spans.NodesNs
			r.spans.ReduceNs += er.Spans.ReduceNs
			r.events += er.EventsApplied
			r.faults += er.FaultsApplied
			r.trans += len(er.SLOTransitions)
		}
	}
	r.cpuS = w.ms() / 1e3
	if rp := eng.SchedReport(); rp != nil {
		r.acct = rp.Accounting
		a := rp.Accounting
		r.decided = a.Dispatches + a.Evictions + a.Completed + a.Failed
	}
	eng.Close()
	return r, nil
}

// setup calibrates a fresh lab and builds the engine, whose construction
// calibrates the root SLO.
func churnSetup(seed uint64) func() (*churnCase, error) {
	return func() (*churnCase, error) {
		c := newChurnCase(seed)
		c.eng = c.newEngine()
		return c, nil
	}
}

func (c *churnCase) newEngine() *engine.Engine {
	eng := engine.New(c.ecfg)
	eng.InstallScenario(c.sc)
	return eng
}

// nextEngine hands out the engine built by set-up once, then new ones.
func (c *churnCase) nextEngine() *engine.Engine {
	if eng := c.eng; eng != nil {
		c.eng = nil
		return eng
	}
	return c.newEngine()
}

// churnDigest hashes the per-epoch statistics and the scheduler's
// accounting of a run.
func churnDigest(epochs []engine.EpochStat, acct sched.Accounting) uint64 {
	h := fnv.New64a()
	for _, e := range epochs {
		for _, v := range []float64{float64(e.At), e.Load, float64(e.RootMean), e.RootFrac, e.EMU, e.LeafWorst,
			float64(e.Violations), float64(e.Down), float64(e.SchedQueue), float64(e.SchedRunning)} {
			writeU64(h, math.Float64bits(v))
		}
	}
	for _, v := range []float64{float64(acct.Submitted), float64(acct.Dispatches), float64(acct.Completed),
		float64(acct.Evictions), float64(acct.Failed), acct.GoodCPUSec, acct.WastedCPUSec} {
		writeU64(h, math.Float64bits(v))
	}
	return h.Sum64()
}

func churnOutputs(digest uint64, res cluster.Result) []string {
	s := res.Summarize()
	good := 0.0
	if s.Sched != nil {
		good = goodputFrac(*s.Sched)
	}
	return []string{
		fmt.Sprintf("sim_digest=%016x epochs=%d", digest, len(res.Epochs)),
		fmt.Sprintf("mean_emu=%.6f min_emu=%.6f root_slo_violations=%d down_epochs=%d",
			s.MeanEMU, s.MinEMU, s.Violations, s.DownEpochs),
		fmt.Sprintf("sched_goodput_frac=%.6f completed=%d evictions=%d", good, res.Sched.Accounting.Completed, res.Sched.Accounting.Evictions),
	}
}

func goodputFrac(a sched.Accounting) float64 {
	if t := a.GoodCPUSec + a.WastedCPUSec; t > 0 {
		return a.GoodCPUSec / t
	}
	return 0
}

// runChurn alternates whole cluster.RunScenario runs (the lifecycle)
// with engine-loop runs that time every epoch and migrate the engine
// several times mid-run. Every run must reproduce the first RunScenario's
// epochs.
func runChurn(o opts) (*report, error) {
	rep := &report{}
	c, setupS, err := medianSetup(o, churnSetup(o.seed), func(c *churnCase) { c.eng.Close() })
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceChurn(o, rep, c, setupS)
	}
	nodeEpochs := float64(churnLeaves) * churnHorizon.Seconds()

	dl := newDeadline(o.budget)
	var (
		lifeMs, migMs []float64
		stepMs        [][]float64 // per engine-loop run, per epoch
		allocBytes    float64
		ref           []engine.EpochStat
		refDigest     uint64
		loops         []*churnRun
	)
	// The engine built by set-up is used first, so run 0 is an engine
	// loop; the reference epochs come from the first RunScenario (run 1).
	sp := newSpeedo()
	for run := 0; dl.next() || run < 6; run++ {
		if run%2 == 1 {
			w := startCPU()
			a0 := heapAlloc()
			res := cluster.RunScenario(c.cfg, c.sc)
			allocBytes += float64(heapAlloc() - a0)
			ms := w.ms()
			lifeMs = append(lifeMs, ms*sp.next())
			d := churnDigest(res.Epochs, res.Sched.Accounting)
			if ref == nil {
				ref, refDigest = res.Epochs, d
				rep.outputs = churnOutputs(d, res)
			}
			rep.check(d == refDigest, "RunScenario run %d: sim_digest %016x, first run %016x", run, d, refDigest)
			continue
		}
		// Migrate at churnMigrations seed- and run-dependent epochs, one
		// in each equal slice of the middle half of the hour.
		rng := sim.DeriveRNG(o.seed, uint64(run))
		at := make([]int, churnMigrations)
		for k := range at {
			at[k] = 900 + k*1800/churnMigrations + rng.Intn(1800/churnMigrations)
		}
		r, err := c.engineLoop(c.nextEngine(), at, false)
		f := sp.next()
		rep.check(err == nil, "engine loop run %d: %v", run, err)
		if err != nil {
			continue
		}
		stepMs = append(stepMs, scaled(r.stepMs, f))
		migMs = append(migMs, scaled(r.migMs, f)...)
		loops = append(loops, r)
		rep.attempted += len(r.epochs)
	}
	rep.outputs = append(rep.outputs, sp.output())
	for i, r := range loops {
		rep.check(reflect.DeepEqual(r.epochs, ref),
			"engine loop %d (migrated mid-run) does not reproduce RunScenario's epochs", i)
	}
	// Throughput is over the median run: each epoch at its median time.
	perOp := opMedians(stepMs)
	runS := sumOf(perOp) / 1e3
	rep.set("setup_s", setupS)
	rep.set("node_epochs_per_s", nodeEpochs/runS)
	rep.set("alloc_bytes_per_node_epoch", allocBytes/(float64(len(lifeMs))*nodeEpochs))
	rep.set("op_p50_ms", quantile(perOp, 0.5))
	rep.set("op_p99_ms", quantile(perOp, 0.99))
	rep.set("max_ops_per_s", float64(len(perOp))/runS)
	rep.set("lifecycle_p50_ms", median(lifeMs))
	rep.set("migrate_p50_ms", median(migMs))
	return rep, nil
}

// traceChurn checks the traced engine loop against cluster.RunScenario
// and reports the engine's phase spans and the layers' counters.
func traceChurn(o opts, rep *report, c *churnCase, setupS float64) (*report, error) {
	res := cluster.RunScenario(c.cfg, c.sc)
	rep.outputs = churnOutputs(churnDigest(res.Epochs, res.Sched.Accounting), res)

	dl := newDeadline(o.budget)
	var (
		plainS, tracedS, newS, stepNs []float64
		tr                            *churnRun
	)
	for run := 0; dl.next() || run < 2; run++ {
		w := startCPU()
		eng := c.nextEngine()
		if run > 0 {
			newS = append(newS, w.ms()/1e3)
		}
		traced := run%2 == 0
		r, err := c.engineLoop(eng, nil, traced)
		rep.check(err == nil, "engine loop run %d: %v", run, err)
		if err != nil {
			continue
		}
		rep.attempted += len(r.epochs)
		rep.check(reflect.DeepEqual(r.epochs, res.Epochs),
			"engine loop run %d does not reproduce RunScenario's epochs", run)
		rep.check(r.acct == res.Sched.Accounting, "engine loop run %d: scheduler accounting differs from RunScenario's", run)
		if traced {
			tracedS = append(tracedS, r.cpuS)
			for _, ms := range r.stepMs {
				stepNs = append(stepNs, ms*1e6)
			}
			if tr == nil {
				tr = r
			}
		} else {
			plainS = append(plainS, r.cpuS)
		}
	}
	if tr == nil {
		return nil, fmt.Errorf("no traced engine loop completed")
	}
	sp := tr.spans
	total := float64(sp.EventsNs + sp.SchedNs + sp.NodesNs + sp.ReduceNs)
	n := float64(len(tr.epochs))
	rep.set("engine.step_ns_p50", quantile(stepNs, 0.5))
	rep.set("engine.step_ns_p99", quantile(stepNs, 0.99))
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"events", sp.EventsNs}, {"sched", sp.SchedNs}, {"nodes", sp.NodesNs}, {"reduce", sp.ReduceNs}} {
		rep.set("engine."+ph.name+"_ns", float64(ph.ns)/n)
		rep.set("engine."+ph.name+"_share", float64(ph.ns)/total)
	}
	rep.set("engine.events_applied", float64(tr.events))
	rep.set("engine.faults_applied", float64(tr.faults))
	rep.set("slo.transitions", float64(tr.trans))
	rep.set("sched.decisions", float64(tr.decided))
	rep.set("sched.goodput_frac", goodputFrac(tr.acct))
	// A leaf inside a crash outage steps neither its machine nor its
	// controller.
	steps := 0
	for _, e := range tr.epochs {
		steps += churnLeaves - e.Down
	}
	rep.set("machine.steps", float64(steps))
	rep.set("core.steps", float64(steps))
	rep.set("experiment.calibrate_s", setupS)
	rep.set("engine.new_s", median(newS))
	rep.set("trace_overhead_frac", median(tracedS)/median(plainS)-1)
	return rep, nil
}
