package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the middle two for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, as (value, percentile). With fewer than eleven
// samples there is no such percentile and the maximum is returned with
// percentile 100.
func tail(xs []float64) (float64, float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// windowedTail splits the samples, in the order they were taken, into up
// to ten consecutive windows of at least tailWindow samples and returns
// the median of the windows' tails, with the percentile and sample count
// of one window. On a long run the tail of the whole run sits on its ten
// worst outliers (a GC pause or a host hiccup) and moves from run to run
// far more than the service does; the median over windows keeps the same
// percentile rule and is steady.
func windowedTail(xs []float64) (value, pct float64, perWindow int) {
	k := min(10, max(1, len(xs)/tailWindow))
	per := len(xs) / k
	var tails []float64
	for w := 0; w < k; w++ {
		v, p := tail(xs[w*per : (w+1)*per])
		tails = append(tails, v)
		pct = p
	}
	return median(tails), pct, per
}

// tailWindow is the smallest window windowedTail splits a run into.
const tailWindow = 100

// mean returns the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// memDelta brackets an interval with runtime.ReadMemStats and returns the
// heap allocations (count and bytes) made inside it.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() (allocs uint64, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc
}

// rssSampler reads the process's resident set size every rssEvery while
// a measured loop runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB, in time order
}

const rssEvery = 100 * time.Millisecond

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// peakMB stops the sampler and returns the median over ten consecutive
// windows of each window's highest resident set. The high-water mark of
// the whole process moves with where one garbage-collection cycle
// happened to peak; the windowed peak is steady from run to run.
func (r *rssSampler) peakMB() float64 {
	close(r.stop)
	<-r.done
	k := min(10, len(r.samples))
	if k == 0 {
		// No /proc: the runtime's obtained memory bounds the RSS from above.
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / (1 << 20)
	}
	per := len(r.samples) / k
	var peaks []float64
	for w := 0; w < k; w++ {
		peaks = append(peaks, slices.Max(r.samples[w*per:(w+1)*per]))
	}
	return median(peaks)
}

// residentMB reads the current resident set from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// cpuModel returns the first "model name" line of /proc/cpuinfo, or the
// architecture when the file is unavailable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// ratio divides, returning NaN-free 0 when the base is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
