package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank; xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowQuantile splits the latency samples, in completion order, into
// consecutive windows of minPerWindow samples (the last one takes the
// remainder) and takes the q-quantile of each. It returns the mean of
// those window quantiles without the lowest and the highest quarter of
// them (at least one each), and the window count; below three windows it
// is the plain quantile. The tail of a workload whose executions stay
// resident grows with the heap through the run, and one window's tail
// swings with where a collection cycle or a stall of the shared machine
// falls: the trimmed mean over the run's windows is steadier than one
// tail over the whole run, and follows the growth that the median window
// would hide.
func windowQuantile(samples []float64, q float64, minPerWindow int) (float64, int) {
	n := len(samples)
	windows := n / minPerWindow
	if windows < 3 {
		return quantile(append([]float64(nil), samples...), q), 1
	}
	vals := make([]float64, windows)
	for w := range vals {
		lo, hi := w*minPerWindow, (w+1)*minPerWindow
		if w == windows-1 {
			hi = n
		}
		vals[w] = quantile(append([]float64(nil), samples[lo:hi]...), q)
	}
	sort.Float64s(vals)
	trim := max(windows/4, 1)
	sum := 0.0
	for _, v := range vals[trim : windows-trim] {
		sum += v
	}
	return sum / float64(windows-2*trim), windows
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocCounter measures allocations of a single-goroutine loop.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

// perOp runs fn n times per round for rounds rounds and returns the
// median ns per call and the mean allocations and bytes per call. It is
// the replay timer: one goroutine, inputs captured from the run.
func perOp(rounds, n int, fn func(i int)) (ns, allocs, bytes float64) {
	fn(0) // warm caches and lazily built tables
	per := make([]float64, 0, rounds)
	a0 := readAllocs()
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	a1 := readAllocs()
	calls := float64(rounds * n)
	return median(per), float64(a1.mallocs-a0.mallocs) / calls, float64(a1.bytes-a0.bytes) / calls
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// fsType names the filesystem holding dir, from statfs magic numbers.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6a656a63:
		return "fakeowner"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}

// peakRSS returns the process's peak resident set in MiB, from
// /proc/self/status (0 where that is not available).
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsyncProbe times n small appends each followed by fsync in a scratch
// file of dir and returns the median fsync latency in microseconds: the
// disk the durable workload waits on, recorded with its result.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	line := make([]byte, 128)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(line); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(times), nil
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// steal ticks and the total (zeros where that is not available).
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter reports the share of the machine's CPU time the hypervisor
// took away (steal) between its creation and the call of the returned
// function: recorded with a result, it tells a slow run on a busy host
// from a slow program.
func stealMeter() func() float64 {
	s0, t0 := cpuTicks()
	return func() float64 {
		s1, t1 := cpuTicks()
		if t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}
