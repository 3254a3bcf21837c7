package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); zero for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new peak-resident-memory window. Linux resets
// the high-water mark on writing 5 to clear_refs; where that fails,
// peakRSSMiB keeps reporting the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is the process's resident-memory high-water mark in MiB:
// VmHWM from /proc/self/status, else the getrusage peak.
func peakRSSMiB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// runtimeSample is the set of runtime/metrics values the per-layer
// runtime metrics are deltas of.
type runtimeSample struct {
	allocObjects uint64
	allocBytes   uint64
	gcCycles     uint64
	gcCPU        float64
	totalCPU     float64
	mutexWait    float64
	sched        *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

// sampleRuntime reads the runtime metrics the per-layer runtime numbers
// are computed from.
func sampleRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s runtimeSample
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	s.allocObjects, s.allocBytes, s.gcCycles = u(0), u(1), u(2)
	s.gcCPU, s.totalCPU, s.mutexWait = f(3), f(4), f(5)
	if samples[6].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[6].Value.Float64Histogram()
		s.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return s
}

// runtimeDelta is what happened in the runtime between two samples.
type runtimeDelta struct {
	allocObjects, allocBytes, gcCycles float64
	gcCPUShare, mutexWaitS             float64
	schedP99US                         float64
}

func (a runtimeSample) delta(b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocObjects: float64(b.allocObjects - a.allocObjects),
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		mutexWaitS:   b.mutexWait - a.mutexWait,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / cpu
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		d.schedP99US = histQuantile(a.sched, b.sched, 0.99) * 1e6
	}
	return d
}

// histQuantile returns the q-quantile of the difference of two cumulative
// runtime histograms, taking each bucket's upper bound (its lower bound
// for the open last bucket).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > want {
			hi := b.Buckets[i+1]
			if hi > 1e300 { // +Inf
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// hostStamp identifies the host class a result belongs to, so numbers
// are only ever compared within one class.
type hostStamp struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func stampHost(sha string) hostStamp {
	return hostStamp{
		GitSHA:     sha,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the processor model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
