package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// Host-time metrics are reported at a reference host speed.
//
// The host these figures come from is a virtual machine whose cores are
// shared with other tenants. There, the same code runs up to 1.7 times
// slower in spells that last from seconds to minutes, in CPU time as much
// as in wall time, so no run length averages them out. A fixed reference
// kernel outside the program is timed at the boundaries of every repeat
// of a workload, and the repeat's host times are scaled by refNominalMs
// over the kernel's time around it (control-plane uses one factor for the
// whole run; see runControl). The kernel uses only the standard library,
// so no change to the program moves it.
//
// The kernel sorts a slice and multiplies small matrices. On the tuning
// host, over seven minutes of alternating cluster-churn engine loops and
// colocate-grid points, the interquartile spread over the median of
// 40-second medians fell from 0.05 to 0.02 (engine loop) and from 0.08
// to 0.02 (grid points) with the scaling. Either half alone tracked
// worse: the sort under-corrected and the matrix product over-corrected,
// and a dependent sqrt chain or a pointer chase tracked worse still. The
// scaling is not exact: once, as the host quietened, the kernel sped up
// 1.56 times and the grid 1.35 times. Every run prints the kernel's median
// time and the median factor.

// refNominalMs is the kernel's thread CPU time, in ms, at the reference
// host speed that scaled host times refer to: a typical value on the
// tuning host (2 vCPUs of a shared x86-64 host, Go 1.24).
const refNominalMs = 4.0

const (
	refSortN   = 1 << 14 // float64s sorted per kernel call
	refMatN    = 64      // matrix order
	refMatReps = 6       // matrix products per kernel call
	refSamples = 3       // kernel calls per boundary; the median is kept
)

var ref struct {
	src, buf []float64
	a, out   [refMatN][refMatN]float64
}

func init() {
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	ref.src = make([]float64, refSortN)
	ref.buf = make([]float64, refSortN)
	for i := range ref.src {
		ref.src[i] = float64(next()%1000000) / 7
	}
	for i := range ref.a {
		for j := range ref.a[i] {
			ref.a[i][j] = float64(next()%1000) / 1000
		}
	}
}

// refKernelMs runs the reference kernel once and returns its thread CPU
// time in ms. The goroutine is locked to its thread so that the clock
// counts only the kernel, even while other goroutines run.
func refKernelMs() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	copy(ref.buf, ref.src)
	sort.Float64s(ref.buf)
	for r := 0; r < refMatReps; r++ {
		ref.out = [refMatN][refMatN]float64{}
		for i := 0; i < refMatN; i++ {
			for k := 0; k < refMatN; k++ {
				a := ref.a[i][k]
				for j := 0; j < refMatN; j++ {
					ref.out[i][j] += a * ref.a[k][j]
				}
			}
		}
	}
	ms := float64(threadCPU()-t0) / 1e6
	sink += ref.buf[refSortN/2] + ref.out[1][2]
	return ms
}

// refSample is the median of refSamples kernel calls, in ms.
func refSample() float64 {
	xs := make([]float64, refSamples)
	for i := range xs {
		xs[i] = refKernelMs()
	}
	return median(xs)
}

// speedo brackets the repeats of a workload with kernel samples.
type speedo struct {
	last    float64
	samples []float64
}

func newSpeedo() *speedo {
	s := &speedo{last: refSample()}
	s.samples = append(s.samples, s.last)
	return s
}

// next samples the kernel and returns the factor that scales host time
// spent since the previous sample to the reference speed: refNominalMs
// over the mean of the two samples around it.
func (s *speedo) next() float64 {
	cur := refSample()
	s.samples = append(s.samples, cur)
	f := refNominalMs / ((s.last + cur) / 2)
	s.last = cur
	return f
}

// sample times the kernel once more without closing a repeat.
func (s *speedo) sample() {
	s.last = refSample()
	s.samples = append(s.samples, s.last)
}

// factor scales host time spent anywhere in the run to the reference
// speed: refNominalMs over the median of every kernel sample of the run.
func (s *speedo) factor() float64 { return refNominalMs / median(s.samples) }

// output is the line a run prints about the kernel: its median time and
// the median factor applied.
func (s *speedo) output() string {
	m := median(s.samples)
	return fmt.Sprintf("ref_kernel_ms=%.4f host_time_scale=%.4f (host times are scaled to a %.2f ms kernel)", m, refNominalMs/m, refNominalMs)
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// threadCPU returns the CPU time used by the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
