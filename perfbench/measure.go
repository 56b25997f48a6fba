package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the Harrell–Davis estimate of the q-quantile
// (0 < q < 1) of xs, or 0 for an empty sample. xs is sorted in place.
//
// The estimate weights every order statistic by the Beta((n+1)q,
// (n+1)(1-q)) mass over its rank, so it does not jump from one sample
// to the next as a nearest-rank quantile does. A median of the eleven
// flow_large designs then rests on the middle five or so, not on one
// design that ran through one short slow spell of the machine.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[n-1]
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// the continued fraction of Numerical Recipes (§6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lbt := lab - la - lb + a*math.Log(x) + b*math.Log1p(-x)
	below := x < (a+1)/(a+b+2)
	if lbt < -745 { // the front factor underflows: x is far out in a tail
		if below {
			return 0
		}
		return 1
	}
	if below {
		return math.Exp(lbt) * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(lbt)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of betaInc by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-14
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	maxIter := 100 + 10*int(math.Sqrt(max(a, b)))
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= maxIter; m++ {
		fm, m2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPercentile is the q-quantile when at least ten samples lie above
// it, and otherwise the highest quantile that has ten samples above it,
// falling back to the median for fewer than 20 samples: a tail
// percentile resting on fewer samples than that is mostly noise.
func tailPercentile(xs []float64, q float64) float64 {
	if n := float64(len(xs)); n*(1-q) < 10 {
		q = max(0.5, 1-10/n)
	}
	return percentile(xs, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS lowers the resident-set high-water mark to the current
// resident set (Linux 4.0 and later), so that windowPeakRSSMB reads the
// peak of what runs after it. It reports whether the reset worked.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// windowPeakRSSMB is the resident-set high-water mark (VmHWM) in MB
// since the last resetPeakRSS.
func windowPeakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// window measures one phase: wall time, process CPU and Go heap
// activity between start and stop.
type window struct {
	t0    time.Time
	cpu0  time.Duration
	mem0  runtime.MemStats
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func startWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem0)
	w.cpu0 = cpuTime()
	w.t0 = time.Now()
	return w
}

func (w *window) stop() {
	w.wall = time.Since(w.t0)
	w.cpu = cpuTime() - w.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.alloc = m.TotalAlloc - w.mem0.TotalAlloc
	w.gcs = m.NumGC - w.mem0.NumGC
}

// runtimeLayers fills the Go-runtime per-layer metrics for ops
// completed operations inside w.
func runtimeLayers(m map[string]float64, w *window, ops int) {
	if ops > 0 {
		m["runtime.alloc_mb_per_op"] = float64(w.alloc) / (1 << 20) / float64(ops)
	}
	m["runtime.gc_cycles"] = float64(w.gcs)
}

// A run sets up setupReps times, setupGap apart, and reports the
// median as setup_s: spread out, the repetitions do not all fall into
// one slow spell of a shared machine.
const (
	setupReps = 7
	setupGap  = 100 * time.Millisecond
)

// timeSetup runs setup reps times and returns the last result with the
// median set-up time in seconds.
func timeSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		time.Sleep(setupGap)
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// fingerprint describes the machine and the code a result came from.
func fingerprint() map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp["commit"] = s.Value
			}
		}
	}
	// A checkout without version-control metadata still identifies its
	// code by the digest of the module's sources. run.sh puts the binary
	// in <checkout>/.bench_build.
	if exe, err := os.Executable(); err == nil {
		if sum, err := sourceDigest(filepath.Dir(filepath.Dir(exe))); err == nil {
			fp["source_sha256"] = sum
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and every .go file under root, in path
// order, skipping the benchmark's own directory and build outputs.
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", err
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !(name == "go.mod" && filepath.Dir(path) == root) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
