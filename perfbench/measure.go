package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"sqlarray/internal/obs"
)

// samples is a list of measurements of one quantity.
type samples []float64

// quantile returns the q-quantile by linear interpolation between the
// two closest ranks (q=0.5 is the median).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

func sum(s samples) float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tracer records spans around the benchmark's calls into each layer,
// name and duration, kept in memory until the run ends. Spans nest: a
// probe's lookup span encloses its ReadRuns span. A nil *tracer records
// nothing, so plain operations pay one nil check per call site.
type tracer struct {
	spans []span
	open  []int // indexes of the spans begun and not yet ended
}

type span struct {
	name  string
	start time.Time
	dur   time.Duration
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, start: time.Now()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	s := &t.spans[t.open[len(t.open)-1]]
	t.open = t.open[:len(t.open)-1]
	s.dur = time.Since(s.start)
}

// durations returns the duration, in ns, of every span with the given
// name.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur))
		}
	}
	return out
}

// goStats sums the Go runtime's allocation and GC-pause counters over a
// part's slices of the run, so that other parts' work in between is not
// charged to it, and reports them per operation.
type goStats struct {
	mark           runtime.MemStats
	alloc, pauseNs uint64
}

func (g *goStats) start() { runtime.ReadMemStats(&g.mark) }

func (g *goStats) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	g.alloc += now.TotalAlloc - g.mark.TotalAlloc
	g.pauseNs += now.PauseTotalNs - g.mark.PauseTotalNs
}

func (g *goStats) report(r *result, ops int) {
	if ops < 1 {
		ops = 1
	}
	r.set("go.alloc_bytes_per_op", "B", float64(g.alloc)/float64(ops))
	r.set("go.gc_pause_ms_per_op", "ms", float64(g.pauseNs)/1e6/float64(ops))
}

// perOp reports each named registry counter of delta divided by ops.
func perOp(r *result, delta obs.Snapshot, ops int, names map[string]string) {
	if ops < 1 {
		ops = 1
	}
	for name, unit := range names {
		r.set(name, unit, float64(delta.Get(name))/float64(ops))
	}
}

// hitRatio is the share of logical page reads served without a
// physical read.
func hitRatio(delta obs.Snapshot) float64 {
	logical := delta.Get("pages.logical_reads")
	if logical == 0 {
		return 0
	}
	return 1 - float64(delta.Get("pages.physical_reads"))/float64(logical)
}

// histBuckets reads one histogram's cumulative buckets out of the
// registry's Prometheus exposition: upper bounds in seconds (+Inf last)
// and cumulative counts.
func histBuckets(reg *obs.Registry, name string) (bounds []float64, cum []uint64) {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	prefix := obs.PromName(name) + "_seconds_bucket{le=\""
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.IndexByte(rest, '"')
		sp := strings.LastIndexByte(rest, ' ')
		if q < 0 || sp < 0 {
			continue
		}
		le := math.Inf(1)
		if rest[:q] != "+Inf" {
			v, err := strconv.ParseFloat(rest[:q], 64)
			if err != nil {
				continue
			}
			le = v
		}
		n, err := strconv.ParseUint(rest[sp+1:], 10, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, le)
		cum = append(cum, n)
	}
	return bounds, cum
}

// histQuantile estimates the q-quantile, in seconds, of the
// observations made between two histBuckets reads, interpolating
// linearly inside the bucket that holds it (the usual estimate for a
// fixed-bucket histogram).
func histQuantile(bounds []float64, before, after []uint64, q float64) float64 {
	if len(bounds) == 0 || len(before) != len(after) {
		return math.NaN()
	}
	total := after[len(after)-1] - before[len(before)-1]
	if total == 0 {
		return math.NaN()
	}
	target := q * float64(total)
	prevCum, prevBound := 0.0, 0.0
	for i, le := range bounds {
		c := float64(after[i] - before[i])
		if c >= target {
			if math.IsInf(le, 1) {
				return prevBound
			}
			inBucket := c - prevCum
			if inBucket <= 0 {
				return le
			}
			return prevBound + (le-prevBound)*(target-prevCum)/inBucket
		}
		prevCum, prevBound = c, le
	}
	return prevBound
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the calling OS thread's CPU time, to the
// nanosecond. Unlike wall time it excludes time the thread did not run:
// on a shared virtual machine, time the host takes the virtual CPU away
// (steal) sets the wall-clock tail of short operations. Callers lock
// their goroutine to its thread for the span they measure.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// offCPUPct is the share of the client's wall time on the measured
// operations that its thread spent off the CPU.
func offCPUPct(wall, cpu samples) float64 {
	return 100 * (sum(wall) - sum(cpu)) / sum(wall)
}
