// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed host-time budget, checks the simulator's and
// the control plane's outputs, and prints every metric with its unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 a separately timed, traced run reports the per-layer ones.
// Tracing only times calls into each layer's public functions and reads
// values those functions already return; it adds no timers to the
// program. See README.md for the workloads and the metric map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload colocate-grid --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted int
	failed    int
	// failures holds one line per failed operation or check.
	failures []string
	// metrics are the values for the requested mode (end-to-end or
	// per-layer); units come from the spec table.
	metrics map[string]float64
	// outputs are the simulated results, printed and checked but never
	// gated: a fidelity fix legitimately changes them.
	outputs []string
}

func (r *report) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	r.metrics[name] = v
}

// check counts one check as an attempted operation and records its
// failure, if any. Only the first maxFailureLines failures are kept as
// lines; every one counts in failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < maxFailureLines {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

const maxFailureLines = 20

// opts are the command-line settings shared by every workload.
type opts struct {
	seed   uint64
	budget time.Duration
	trace  bool
	setups int // fresh set-ups per run; setup_s is their median
}

type workloadFn func(o opts) (*report, error)

var workloads = map[string]workloadFn{
	"colocate-grid": runGrid,
	"cluster-churn": runChurn,
	"control-plane": runControl,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: colocate-grid, cluster-churn or control-plane")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 40, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark description naming the metrics to report")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	o := opts{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *traceFlag == 1,
		setups: 5,
	}
	if *name == "control-plane" {
		o.setups = 3 // each set-up restores the movers from a warm checkpoint
	}
	host := fingerprint()
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s calib_loop_ns=%.0f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), host)

	rep, err := fn(o)
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if o.trace {
		rep.set("host.calib_ns", host)
		rep.set("host.ref_kernel_ms", refSample())
		want = spec.PerLayer
	} else {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	for _, line := range rep.outputs {
		fmt.Println("output:", line)
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, make(map[string]metric)}
	var idle []string
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok && o.trace {
			// A layer this workload does not exercise did no work.
			idle = append(idle, m.Name)
			ok = true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s did not measure %s", *name, m.Name)
		}
		if !o.trace && v <= 0 {
			return fmt.Errorf("workload %s measured %s = %v; end-to-end metrics must be positive", *name, m.Name, v)
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Printf("%-34s %16s %s\n", m.Name, strconv.FormatFloat(v, 'g', 8, 64), m.Unit)
	}
	if len(idle) > 0 {
		fmt.Printf("not exercised by %s (reported as 0): %s\n", *name, strings.Join(idle, " "))
	}
	if rep.attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations or checks failed", rep.failed, rep.attempted)
	}
	return nil
}

// metricSpec is the part of a BENCHMARK.json metric entry the run needs.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// fingerprint times a fixed floating-point loop, the host's calibration
// figure: dividing a host-time metric by it makes numbers from different
// machines comparable. It returns the median of five trials in ns.
func fingerprint() float64 {
	trials := make([]float64, 5)
	for i := range trials {
		t0 := time.Now()
		x := 1.0
		for k := 0; k < 2_000_000; k++ {
			x = math.Sqrt(x*1.000001 + float64(k&7))
		}
		trials[i] = float64(time.Since(t0).Nanoseconds())
		sink += x
	}
	return median(trials)
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink float64

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// heapAlloc returns cumulative heap bytes allocated by the process.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the median of xs (NaN for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianSetup runs set-up o.setups times and returns the median CPU time
// in seconds, at the reference host speed, together with the last
// set-up's value, which the run keeps.
func medianSetup[T any](o opts, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last T
		ds   []float64
	)
	sp := newSpeedo()
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			teardown(last)
		}
		w := startCPU()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		ds = append(ds, w.ms()/1e3*sp.next())
		last = v
	}
	return last, median(ds), nil
}

// deadline is a measurement window in wall time.
type deadline struct{ end, last time.Time }

func newDeadline(d time.Duration) *deadline {
	now := time.Now()
	return &deadline{end: now.Add(d), last: now}
}

func (d *deadline) passed() bool { return !time.Now().Before(d.end) }

// next reports whether another iteration as long as the one since the
// previous call still fits in the window, so a run of long iterations
// does not overshoot its budget. Call it once per iteration.
func (d *deadline) next() bool {
	now := time.Now()
	step := now.Sub(d.last)
	d.last = now
	return !now.Add(step).After(d.end)
}

// cpuWatch measures an interval in process CPU time. Batch work and
// set-up are timed this way: on a shared virtual host, wall time also
// counts the time the VM was descheduled, while CPU time leaves it out.
// Control-plane latencies are wall time, as an open-loop client sees
// them.
type cpuWatch time.Duration

func startCPU() cpuWatch { return cpuWatch(cpuTime()) }

func (w cpuWatch) ms() float64 { return float64(cpuTime()-time.Duration(w)) / 1e6 }

// cpuTime returns the CPU time used by every thread of the process.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
