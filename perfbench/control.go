package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"heracles/internal/experiment"
	"heracles/internal/fed"
	"heracles/internal/serve"
	"heracles/internal/sim"
)

// The control-plane workload: two in-process serve.Server members behind
// a fed.Router on loopback, each member stepping its instances on one
// epoch-scheduler driver. Paced background instances step and checkpoint
// through the supervisor while an open-loop client sends a read/write mix.
const (
	cpBackground = 32
	// cpMovers is how many background instances the client migrates. A
	// request that races a cross-daemon migration of its instance gets a
	// 404 (the router does not hold requests while a move is in flight),
	// so reads and writes target the other instances, the way a client
	// that owns its migrations behaves.
	cpMovers  = 8
	cpSpeed   = 10 // simulated seconds per wall second of a background instance
	cpDrivers = 1  // epoch-scheduler workers per member
	cpSenders = 2  // client connections (one request in flight each)
	// cpNominalRPS is the open-loop rate of the nominal phase.
	cpNominalRPS = 400
	// cpLimitMs is the p99 latency limit that bounds max_ops_per_s.
	cpLimitMs = 50
	// cpLifecycleEpochs is how long a lifecycle instance free-runs.
	cpLifecycleEpochs = 120
	// cpWarmEpochs is how far set-up free-runs a template instance
	// before background instances restore from its checkpoint: past the
	// 600-epoch telemetry ring, so checkpoints and migrations are at
	// their steady-state size from the first measured op. (A cold
	// instance's migration cost grows tenfold as its ring fills.)
	cpWarmEpochs = 640
	// cpWindows is how many windows a nominal phase is cut into for its
	// latencies and node_epochs_per_s: at 400 requests/s over 16 s, each
	// window's p99 has about ten requests beyond it, and each window
	// holds about ten lifecycles and five migrations.
	cpWindows = 6
	// cpStepS is the host time of one ladder step.
	cpStepS = 1.0
)

var cpLCs = []string{"websearch", "ml_cluster", "memkeyval"}
var cpBEs = []string{"brain", "streetview", "stream-LLC", "cpu_pwr"}

// cpLadder is the fixed rate ladder of the max-rate search: 4% apart.
func cpLadder() []float64 {
	var l []float64
	for r := 200.0; r < 20000; r *= 1.04 {
		l = append(l, r)
	}
	return l
}

// Op kinds of the client mix.
const (
	opGet = iota
	opPutLoad
	opList
	opMetrics
	opDirectGet
	opLifecycle
	opMigrate
	opKinds
)

var opNames = [opKinds]string{"get", "put_load", "list", "metrics", "direct_get", "lifecycle", "migrate"}

// cpMix is the nominal op mix, in parts per 1000.
var cpMix = [opKinds]int{opGet: 570, opPutLoad: 200, opList: 40, opMetrics: 40, opDirectGet: 135, opLifecycle: 10, opMigrate: 5}

// member is one serve.Server daemon on a loopback listener.
type member struct {
	srv *serve.Server
	hs  *http.Server
	url string
}

// plane is the federated control plane under test.
type plane struct {
	members []*member
	router  *http.Server
	url     string
	calibS  float64

	bg    []*bgInstance
	migMu sync.Mutex // one migration in flight at a time
}

// bgInstance tracks where the router placed a background instance.
type bgInstance struct {
	fid, member, local string
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// startPlane calibrates each member's lab, starts both members and the
// router, and creates the background instances through the router, each
// restored from a warm template of its LC×BE pair. A cold instance's
// restart checkpoints grow as its telemetry ring fills, so the serving
// cost would climb through the first 24 s of the run. The background is
// the same for every seed: each pair in turn at loads spread evenly over
// 0.2-0.8. With a seed-drawn background, the serving cost, and so every
// control-plane metric, moved from seed to seed; the seed drives the
// client's schedule instead.
func startPlane(seed uint64) (*plane, error) {
	p := &plane{}
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		lab := experiment.DefaultLab()
		for _, lc := range cpLCs {
			lab.LC(lc)
			lab.DRAMModel(lc)
		}
		for _, be := range cpBEs {
			lab.BE(be)
		}
		p.calibS += time.Since(t0).Seconds()
		srv := serve.New(serve.Config{Lab: lab, Drivers: cpDrivers, MaxInstances: 256, SchedSeed: seed})
		hs, url, err := listen(srv.Handler())
		if err != nil {
			srv.Close()
			p.close()
			return nil, err
		}
		p.members = append(p.members, &member{srv: srv, hs: hs, url: url})
	}
	rt, err := fed.NewRouter(fed.Config{Members: []string{p.members[0].url, p.members[1].url}})
	if err != nil {
		p.close()
		return nil, err
	}
	if p.router, p.url, err = listen(rt.Handler()); err != nil {
		p.close()
		return nil, err
	}
	c := newClient()
	defer c.hc.CloseIdleConnections()
	warm := make(map[[2]string]*serve.InstanceCheckpoint)
	for i := 0; i < cpBackground; i++ {
		pair := [2]string{cpLCs[i%len(cpLCs)], cpBEs[i/len(cpLCs)%len(cpBEs)]}
		load := 0.2 + 0.6*float64(i*13%cpBackground)/(cpBackground-1)
		var err error
		if warm[pair] == nil {
			warm[pair], err = p.warmTemplate(c, pair[0], pair[1])
		}
		var info fed.InstanceInfo
		if err == nil {
			err = c.do("POST", p.url+"/api/v1/instances", serve.InstanceSpec{Restore: warm[pair], Speed: cpSpeed}, http.StatusCreated, &info)
		}
		if err == nil {
			err = c.do("PUT", p.url+"/api/v1/instances/"+info.ID+"/load", map[string]float64{"load": load}, http.StatusOK, nil)
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("creating background instance %d: %w", i, err)
		}
		p.bg = append(p.bg, &bgInstance{fid: info.ID, member: info.Member, local: info.MemberID})
	}
	return p, nil
}

// warmTemplate free-runs an instance of the pair for cpWarmEpochs,
// checkpoints it and deletes it. The checkpoint runs without an epoch
// limit when restored.
func (p *plane) warmTemplate(c *client, lc, be string) (*serve.InstanceCheckpoint, error) {
	spec := serve.InstanceSpec{LC: lc, BEs: []serve.BEAttachment{{Workload: be}}, Load: 0.5, Speed: serve.SpeedMax, MaxEpochs: cpWarmEpochs}
	var info fed.InstanceInfo
	if err := c.do("POST", p.url+"/api/v1/instances", spec, http.StatusCreated, &info); err != nil {
		return nil, fmt.Errorf("creating %s template: %w", lc+"+"+be, err)
	}
	for info.State != serve.StateDone {
		time.Sleep(2 * time.Millisecond)
		if err := c.do("GET", p.url+"/api/v1/instances/"+info.ID, nil, http.StatusOK, &info); err != nil {
			return nil, err
		}
	}
	var cp serve.InstanceCheckpoint
	if err := c.do("POST", p.url+"/api/v1/instances/"+info.ID+"/checkpoint", nil, http.StatusOK, &cp); err != nil {
		return nil, err
	}
	if err := c.do("DELETE", p.url+"/api/v1/instances/"+info.ID, nil, http.StatusOK, nil); err != nil {
		return nil, err
	}
	cp.MaxEpochs = 0
	return &cp, nil
}

func (p *plane) close() {
	if p.router != nil {
		p.router.Close()
	}
	for _, m := range p.members {
		m.hs.Close()
		m.srv.Close()
	}
}

// schedStatus sums both members' epoch-scheduler counters; the lag is the worse one.
func (p *plane) schedStatus() serve.EpochSchedStatus {
	var st serve.EpochSchedStatus
	for _, m := range p.members {
		s := m.srv.Registry().SchedStatus()
		st.Epochs += s.Epochs
		st.Slices += s.Slices
		if s.LagSeconds > st.LagSeconds {
			st.LagSeconds = s.LagSeconds
		}
	}
	return st
}

// client is one keep-alive connection's HTTP client.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

// do sends a request and decodes a JSON response into out (when non-nil).
// A status other than want is an error.
func (c *client) do(method, url string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, url, err)
		}
	}
	return nil
}

// op is one scheduled client operation.
type op struct {
	kind int
	due  time.Time
	// target indexes the background instance a light op reads or
	// writes; for a lifecycle or a migration it is the op's ordinal.
	target int
	load   float64
}

// opResult is one completed operation.
type opResult struct {
	kind    int
	latency time.Duration // completion minus due time
	late    time.Duration // generator release minus due time
	err     error
}

var errShed = errors.New("shed: picked up more than the ladder's backlog limit after its due time")

// schedule lays out n ops at a fixed rate, each kind exactly its share
// of mix. Lifecycles and migrations, the ops that each occupy a sender
// for several milliseconds, sit at evenly spaced slots; the other kinds
// fill the remaining slots in an order drawn from the seed's stream, as
// do the light ops' targets and every op's load. Fixed counts and
// spacing keep the heavy ops' weight in a phase, and so the latency
// tail, the same from seed to seed.
func schedule(seed, stream uint64, start time.Time, rate float64, n int, mix [opKinds]int) []op {
	rng := sim.DeriveRNG(seed, stream)
	total := 0
	for _, w := range mix {
		total += w
	}
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = -1
	}
	for h, k := range []int{opLifecycle, opMigrate} {
		c := n * mix[k] / total
		for j := 0; j < c; j++ {
			i := (2*j + 1 + h) * n / (2 * c) % n
			for kinds[i] >= 0 {
				i = (i + 1) % n
			}
			kinds[i] = k
		}
	}
	var light []int
	for k, w := range mix {
		if k != opLifecycle && k != opMigrate {
			for c := n * w / total; c > 0; c-- {
				light = append(light, k)
			}
		}
	}
	for i := len(light) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		light[i], light[j] = light[j], light[i]
	}
	ops := make([]op, n)
	var nth [opKinds]int
	for i := range ops {
		if kinds[i] < 0 {
			kinds[i] = opGet
			if len(light) > 0 {
				kinds[i], light = light[0], light[1:]
			}
		}
		ops[i] = op{
			kind:   kinds[i],
			due:    start.Add(time.Duration(float64(i) / rate * float64(time.Second))),
			target: rng.Intn(cpBackground - cpMovers),
			load:   0.2 + 0.6*rng.Float64(),
		}
		if k := kinds[i]; k == opLifecycle || k == opMigrate {
			// The heavy ops take their targets in turn, so each LC and
			// each mover gets the same share in every phase.
			ops[i].target = nth[k]
			nth[k]++
		}
	}
	return ops
}

// loadgen runs an op schedule open-loop over cpSenders connections: a
// generator releases each op at its due time, and latency counts from the
// due time, so a stall also delays every op queued behind it. With
// shedAfter > 0 an op a sender picks up later than that past its due
// time fails unsent: the rate is already lost, and draining the backlog
// would only spend time.
func (p *plane) loadgen(ops []op, shedAfter time.Duration) []opResult {
	queue := make(chan int, len(ops)) // sized to the schedule: the generator never blocks
	results := make([]opResult, len(ops))
	var wg sync.WaitGroup
	for s := 0; s < cpSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.hc.CloseIdleConnections()
			for i := range queue {
				o := ops[i]
				results[i].kind = o.kind
				if shedAfter > 0 && time.Since(o.due) > shedAfter {
					results[i].err = errShed
				} else {
					results[i].err = p.exec(c, o)
				}
				results[i].latency = time.Since(o.due)
			}
		}()
	}
	for i, o := range ops {
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		results[i].late = time.Since(o.due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results
}

// exec performs one op and checks its response.
func (p *plane) exec(c *client, o op) error {
	switch o.kind {
	case opLifecycle:
		return p.lifecycle(c, o)
	case opMigrate:
		return p.migrate(c, cpBackground-cpMovers+o.target%cpMovers)
	}
	bg := p.bg[o.target]
	switch o.kind {
	case opGet:
		var info fed.InstanceInfo
		if err := c.do("GET", p.url+"/api/v1/instances/"+bg.fid, nil, http.StatusOK, &info); err != nil {
			return err
		}
		if info.ID != bg.fid {
			return fmt.Errorf("GET %s returned instance %q", bg.fid, info.ID)
		}
	case opPutLoad:
		var out struct {
			Load float64 `json:"load"`
		}
		if err := c.do("PUT", p.url+"/api/v1/instances/"+bg.fid+"/load", map[string]float64{"load": o.load}, http.StatusOK, &out); err != nil {
			return err
		}
		if out.Load != o.load {
			return fmt.Errorf("PUT load %v on %s echoed %v", o.load, bg.fid, out.Load)
		}
	case opList:
		var out struct {
			Instances []fed.InstanceInfo `json:"instances"`
		}
		if err := c.do("GET", p.url+"/api/v1/instances", nil, http.StatusOK, &out); err != nil {
			return err
		}
		listed := make(map[string]bool, len(out.Instances))
		for _, in := range out.Instances {
			listed[in.ID] = true
		}
		for _, b := range p.bg[:cpBackground-cpMovers] {
			if !listed[b.fid] {
				return fmt.Errorf("list of %d instances misses %s", len(out.Instances), b.fid)
			}
		}
	case opMetrics:
		req, err := http.NewRequest("GET", p.url+"/metrics", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("heracles_fed_")) {
			return fmt.Errorf("/metrics: status %d, %d bytes without heracles_fed_ series", resp.StatusCode, len(body))
		}
	case opDirectGet:
		var st serve.Status
		if err := c.do("GET", bg.member+"/api/v1/instances/"+bg.local, nil, http.StatusOK, &st); err != nil {
			return err
		}
		if st.ID != bg.local {
			return fmt.Errorf("direct GET %s returned instance %q", bg.local, st.ID)
		}
	}
	return nil
}

// lifecycle creates a free-running instance through the router, polls it
// until it has stepped cpLifecycleEpochs epochs, and deletes it.
func (p *plane) lifecycle(c *client, o op) error {
	spec := serve.InstanceSpec{LC: cpLCs[o.target%len(cpLCs)], Load: o.load, Speed: serve.SpeedMax, MaxEpochs: cpLifecycleEpochs}
	var info fed.InstanceInfo
	if err := c.do("POST", p.url+"/api/v1/instances", spec, http.StatusCreated, &info); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for info.State != serve.StateDone {
		if time.Now().After(deadline) {
			return fmt.Errorf("lifecycle %s: not done after 5s (epoch %d)", info.ID, info.Epoch)
		}
		if err := c.do("GET", p.url+"/api/v1/instances/"+info.ID, nil, http.StatusOK, &info); err != nil {
			return err
		}
	}
	if info.Epoch != cpLifecycleEpochs {
		return fmt.Errorf("lifecycle %s: done at epoch %d, want %d", info.ID, info.Epoch, cpLifecycleEpochs)
	}
	return c.do("DELETE", p.url+"/api/v1/instances/"+info.ID, nil, http.StatusOK, nil)
}

// migrate moves a background instance to the other member through the
// router and checks the router now places it there.
func (p *plane) migrate(c *client, target int) error {
	p.migMu.Lock()
	defer p.migMu.Unlock()
	bg := p.bg[target]
	to := p.members[0].url
	if bg.member == to {
		to = p.members[1].url
	}
	var res serve.MigrateResult
	if err := c.do("POST", p.url+"/api/v1/instances/"+bg.fid+"/migrate", fed.FedMigrateRequest{Member: to}, http.StatusOK, &res); err != nil {
		return err
	}
	var info fed.InstanceInfo
	if err := c.do("GET", p.url+"/api/v1/instances/"+bg.fid, nil, http.StatusOK, &info); err != nil {
		return err
	}
	bg.member, bg.local = info.Member, info.MemberID
	if info.Member != to || info.MemberID != res.To {
		return fmt.Errorf("migrated %s to %s (id %s), router places it on %s (id %s)", bg.fid, to, res.To, info.Member, info.MemberID)
	}
	return nil
}

// phaseStats summarises one loadgen phase.
type phaseStats struct {
	res     []opResult // in schedule order
	late    []float64  // generator lateness, ms
	sent    [opKinds]int
	ok      [opKinds]int
	failed  [opKinds]int
	errs    []string
	elapsed time.Duration
}

func summarise(res []opResult, elapsed time.Duration) *phaseStats {
	s := &phaseStats{res: res, elapsed: elapsed}
	for _, r := range res {
		s.sent[r.kind]++
		s.late = append(s.late, float64(r.late.Nanoseconds())/1e6)
		if r.err != nil {
			s.failed[r.kind]++
			if len(s.errs) < 5 {
				s.errs = append(s.errs, r.err.Error())
			}
			continue
		}
		s.ok[r.kind]++
	}
	return s
}

// quantile is the q-quantile latency of the kinds selected over the
// whole phase; a failed op counts as infinitely late.
func (s *phaseStats) quantile(q float64, kinds ...int) float64 {
	var xs []float64
	for _, r := range s.res {
		for _, k := range kinds {
			if r.kind == k {
				xs = append(xs, r.ms())
			}
		}
	}
	return quantile(xs, q)
}

// ms is the op's latency; a failed op counts as infinitely late.
func (r opResult) ms() float64 {
	if r.err != nil {
		return inf
	}
	return float64(r.latency.Nanoseconds()) / 1e6
}

// windowed is the median over k equal windows of the phase's ops, in
// schedule order, of each window's q-quantile latency of the kinds
// selected.
func (s *phaseStats) windowed(q float64, k int, kinds ...int) float64 {
	qs := make([]float64, k)
	for w := range qs {
		sub := phaseStats{res: s.res[w*len(s.res)/k : (w+1)*len(s.res)/k]}
		qs[w] = sub.quantile(q, kinds...)
	}
	return median(qs)
}

var singleOps = []int{opGet, opPutLoad, opList, opMetrics, opDirectGet}

const inf = 1e300

func (s *phaseStats) failures() int {
	n := 0
	for _, f := range s.failed {
		n += f
	}
	return n
}

// cpRateMix is the ladder's mix: the single-request ops only, so a step
// measures request capacity rather than lifecycle or migration time.
var cpRateMix = [opKinds]int{opGet: 560, opPutLoad: 200, opList: 40, opMetrics: 40, opDirectGet: 120}

// overCapacity reports whether an op failed only because the rate was
// too high: it was shed unsent or the client timed out. serve and fed
// shed no load themselves, so any other failure is a wrong answer.
func overCapacity(err error) bool {
	var ne net.Error
	return errors.Is(err, errShed) || errors.As(err, &ne) && ne.Timeout()
}

// maxRate searches the ladder for the highest rate whose p99 stays under
// cpLimitMs with no failures, one cpStepS probe per rung tried: it
// brackets the knee by doubling the rung index, bisects, then hovers
// there. Every response is checked: an over-capacity failure fails the
// rung, any other failure also fails the run through rep. It samples the
// reference kernel after every probe. It returns the achieved throughput
// at the knee and the probe count.
func (p *plane) maxRate(rep *report, sp *speedo, seed uint64, budget time.Duration) (float64, int) {
	ladder := cpLadder()
	steps := 0
	dl := newDeadline(budget)
	var gross bool // the last probe shed over a tenth of its ops
	probe := func(i int) (bool, float64) {
		steps++
		rate := ladder[i]
		n := int(rate * cpStepS)
		start := time.Now().Add(20 * time.Millisecond)
		res := p.loadgen(schedule(seed, uint64(0x7261+steps), start, rate, n, cpRateMix), 4*cpLimitMs*time.Millisecond)
		st := summarise(res, time.Since(start))
		shed := 0
		for _, r := range res {
			if errors.Is(r.err, errShed) {
				shed++
			}
			rep.check(r.err == nil || overCapacity(r.err), "ladder rung %.0f/s: %s: %v", rate, opNames[r.kind], r.err)
		}
		gross = shed*10 > n
		ok := st.failures() == 0 && st.quantile(0.99, singleOps...) <= cpLimitMs
		sp.sample()
		return ok, float64(n) / st.elapsed.Seconds()
	}
	// A rung fails only if it fails twice: one host stall can break a
	// probe's p99, and the search must not mistake it for the knee. While
	// the knee is still being bracketed, a probe that shed over a tenth of
	// its ops is far over capacity and fails its rung at once, which
	// leaves the hover more of the budget.
	hovering := false
	try := func(i int) (bool, float64) {
		if ok, got := probe(i); ok || gross && !hovering || dl.passed() {
			return ok, got
		}
		return probe(i)
	}
	lo, hi := -1, len(ladder) // rung lo passed, rung hi failed
	var best float64
	for i := len(ladder) / 4; hi == len(ladder) && !dl.passed(); i = min(2*i, len(ladder)-1) {
		if ok, got := try(i); ok {
			lo, best = i, got
			if i == len(ladder)-1 {
				break
			}
		} else {
			hi = i
		}
	}
	for lo < 0 && hi > 0 && !dl.passed() {
		hi /= 2
		if ok, got := try(hi); ok {
			lo, best = hi, got
		}
	}
	for hi-lo > 1 && !dl.passed() {
		mid := (lo + hi) / 2
		if ok, got := try(mid); ok {
			lo, best = mid, got
		} else {
			hi = mid
		}
	}
	// Hover at the knee for the rest of the budget: one pass of the rung
	// above raises it, two failures of the knee lower it. The result is
	// the median throughput of the knee's passing probes.
	got := []float64{best}
	hovering = true
	for lo >= 0 && hi < len(ladder) && !dl.passed() {
		if ok, g := probe(hi); ok {
			lo, hi = hi, hi+1
			got = append(got, g)
		} else if ok, g := try(lo); ok {
			got = append(got, g)
		} else {
			lo, hi = lo-1, lo
		}
	}
	return median(got), steps
}

func runControl(o opts) (*report, error) {
	// The whole plane (members, router, client) shares one core, as the
	// batch workloads run sequentially: on the two-core shared host, runs
	// that needed both cores at once spread several times more between
	// runs, since a neighbour taking either core stalled them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := &report{}
	p, setupS, err := medianSetup(o, func() (*plane, error) { return startPlane(o.seed) }, func(p *plane) { p.close() })
	if err != nil {
		return nil, err
	}
	defer p.close()

	// Nominal phase, then the max-rate ladder in the remaining time.
	nominal := o.budget * 2 / 5
	if o.trace {
		nominal = o.budget * 3 / 20
	}
	// phase runs one nominal-rate schedule. Every phase marks the process
	// CPU time and the epochs served at cpWindows even boundaries. With
	// sample set it also samples the epoch schedulers' lag every 50 ms,
	// the traced run's only addition while requests are in flight.
	phase := func(stream uint64, sample bool) *nominalPhase {
		n := int(nominal.Seconds() * cpNominalRPS)
		start := time.Now().Add(50 * time.Millisecond)
		ops := schedule(o.seed, stream, start, cpNominalRPS, n, cpMix)
		ph := &nominalPhase{}
		mark := func() {
			ph.marks = append(ph.marks, phaseMark{time.Now(), cpuTime(), p.schedStatus().Epochs})
		}
		s0 := p.schedStatus()
		a0 := heapAlloc()
		mark()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			win := time.NewTicker(nominal / cpWindows)
			defer win.Stop()
			lag := time.NewTicker(50 * time.Millisecond)
			if !sample {
				lag.Stop()
			}
			defer lag.Stop()
			for {
				select {
				case <-stop:
					return
				case <-win.C:
					mark()
				case <-lag.C:
					ph.lagMax = max(ph.lagMax, p.schedStatus().LagSeconds*1e3)
				}
			}
		}()
		res := p.loadgen(ops, 0)
		ph.alloc = heapAlloc() - a0
		s1 := p.schedStatus()
		close(stop)
		wg.Wait()
		mark()
		ph.st = summarise(res, time.Since(start))
		ph.epochs = s1.Epochs - s0.Epochs
		ph.slices = s1.Slices - s0.Slices
		account(rep, ph.st)
		return ph
	}
	rep.outputs = []string{
		fmt.Sprintf("nominal_rps=%d background=%d members=2", cpNominalRPS, cpBackground),
		fmt.Sprintf("limit_p99_ms=%d ladder=200*1.04^k", cpLimitMs),
	}

	if !o.trace {
		// Requests, epochs and probes all share one core with goroutines
		// moving between threads, so the kernel times around a phase
		// do not track it: within one run, 4-second phases neither sped
		// up nor slowed down with the kernel sampled next to them. The
		// scale factor is the run's, from the median of every sample.
		sp := newSpeedo()
		ph := phase(1, false)
		sp.sample()
		st := ph.st
		best, steps := p.maxRate(rep, sp, o.seed, o.budget-nominal)
		f := sp.factor()
		rep.outputs = append(rep.outputs, fmt.Sprintf("nominal_ops=%d failed=%d max_rate_steps=%d", len(st.res), st.failures(), steps), sp.output())
		epochs := float64(ph.epochs)
		rep.set("setup_s", setupS)
		// Epochs are paced, so their count is fixed by the schedule; the
		// CPU the whole process spent serving them (client included)
		// moves with the cost of an epoch and of the requests around it.
		rep.set("node_epochs_per_s", 1/(ph.cpuPerEpoch()*f))
		rep.set("alloc_bytes_per_node_epoch", float64(ph.alloc)/epochs)
		// Each latency is the median of the windows' figures: a host
		// stall, or the catch-up of the epoch schedulers after one,
		// raises the figures of the window it falls in, not the run's.
		rep.set("op_p50_ms", st.windowed(0.5, cpWindows, singleOps...)*f)
		rep.set("op_p99_ms", st.windowed(0.99, cpWindows, singleOps...)*f)
		rep.set("max_ops_per_s", best/f)
		rep.set("lifecycle_p50_ms", st.windowed(0.5, cpWindows, opLifecycle)*f)
		rep.set("migrate_p50_ms", st.windowed(0.5, cpWindows, opMigrate)*f)
		return rep, nil
	}

	// Traced: four nominal phases in the order untraced, traced, traced,
	// untraced, so a linear drift of the host's speed cancels out of
	// trace_overhead_frac. The per-layer figures come from the traced
	// phases, then the background instances' span rings.
	phases := []*nominalPhase{phase(1, false), phase(2, true), phase(3, true), phase(4, false)}
	plain := merge(phases[0], phases[3])
	traced := merge(phases[1], phases[2])
	tst := traced.st
	var nodesNs, publishNs []float64
	for _, m := range p.members {
		for _, inst := range m.srv.Registry().List() {
			for _, sp := range inst.TraceSpans() {
				nodesNs = append(nodesNs, float64(sp.NodesNs))
				publishNs = append(publishNs, float64(sp.PublishNs))
			}
		}
	}
	for k := 0; k < opKinds; k++ {
		rep.set("loadgen.sent."+opNames[k], float64(tst.sent[k]))
		rep.set("loadgen.ok."+opNames[k], float64(tst.ok[k]))
		rep.set("loadgen.failed."+opNames[k], float64(tst.failed[k]))
	}
	rep.set("serve.get_ms", tst.quantile(0.5, opGet))
	rep.set("serve.put_load_ms", tst.quantile(0.5, opPutLoad))
	rep.set("serve.list_ms", tst.quantile(0.5, opList))
	rep.set("serve.metrics_ms", tst.quantile(0.5, opMetrics))
	rep.set("fed.hop_ms", tst.quantile(0.5, opGet)-tst.quantile(0.5, opDirectGet))
	rep.set("serve.sched_epochs", float64(traced.epochs))
	rep.set("serve.sched_slices", float64(traced.slices))
	rep.set("serve.sched_lag_ms_max", traced.lagMax)
	rep.set("serve.span_nodes_ns", median(nodesNs))
	rep.set("serve.span_publish_ns", median(publishNs))
	rep.set("loadgen.late_p99_ms", quantile(tst.late, 0.99))
	rep.set("experiment.calibrate_s", p.calibS)
	rep.set("trace_overhead_frac", tst.quantile(0.5, singleOps...)/plain.st.quantile(0.5, singleOps...)-1)
	return rep, nil
}

// nominalPhase is one nominal-rate phase: its ops and what the members
// did meanwhile.
type nominalPhase struct {
	st             *phaseStats
	epochs, slices int64  // epoch-scheduler counters advanced
	alloc          uint64 // heap bytes allocated by the process
	marks          []phaseMark
	lagMax         float64 // worst sampled scheduler lag, ms (sampled phases only)
}

// phaseMark is a phase's progress at one window boundary.
type phaseMark struct {
	at     time.Time
	cpu    time.Duration // process CPU time
	epochs int64         // epochs the members' schedulers have advanced
}

// cpuPerEpoch is the median over the phase's windows of the process CPU
// seconds spent per epoch served. A window shorter than half
// the others (the tail after the last boundary) is left out.
func (ph *nominalPhase) cpuPerEpoch() float64 {
	var span time.Duration
	for i := 1; i < len(ph.marks); i++ {
		span = max(span, ph.marks[i].at.Sub(ph.marks[i-1].at))
	}
	var costs []float64
	for i := 1; i < len(ph.marks); i++ {
		a, b := ph.marks[i-1], ph.marks[i]
		if b.at.Sub(a.at) >= span/2 && b.epochs > a.epochs {
			costs = append(costs, (b.cpu-a.cpu).Seconds()/float64(b.epochs-a.epochs))
		}
	}
	return median(costs)
}

// merge pools the ops and scheduler figures of two phases.
func merge(a, b *nominalPhase) *nominalPhase {
	return &nominalPhase{
		st:     summarise(append(append([]opResult(nil), a.st.res...), b.st.res...), a.st.elapsed+b.st.elapsed),
		epochs: a.epochs + b.epochs,
		slices: a.slices + b.slices,
		lagMax: max(a.lagMax, b.lagMax),
	}
}

// account books a phase's ops and failures into the report.
func account(rep *report, st *phaseStats) {
	for k := 0; k < opKinds; k++ {
		rep.attempted += st.sent[k]
		rep.failed += st.failed[k]
	}
	rep.failures = append(rep.failures, st.errs...)
}
