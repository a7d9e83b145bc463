// Command perfbench is the repository's benchmark. Every run goes
// through three seeded parts against the engine through its public API,
// checks every answer, and prints the metrics by name with their units.
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 30 --trace 0
//
// The parts (see README.md for why each was chosen):
//
//   - t1: the paper's §6.3 experiment, five scans round-robin.
//   - turb: the §2.1 stencil service, PartialRead batches of 100 points.
//   - dml: COPY ingest of n-body snapshots, then a WAL-logged DML mix
//     with scans pinned to older snapshots.
//
// The two workloads run all three parts and differ in the buffer pool:
//
//   - cold: Table 1 queries each start after DropCleanBuffers, and the
//     turbulence store is 14 times the 8 MB pool, so reads miss.
//   - warm: the pools hold all the data and are never dropped, so the
//     same operations run on the CPU path alone.
//
// The DML part's pool holds its table in both.
//
// With --trace 0 the run measures the end-to-end metrics with no
// instrumentation. With --trace 1 the same loops interleave plain
// operations with traced ones (the benchmark's own spans around layer
// calls, engine query traces, registry deltas) and direct layer
// probes, and report the per-layer metrics plus the tracing overhead
// (traced minus plain).
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The line before it
// carries, per part, each timing's sample count, the registry delta of
// the measured loop and the UDF boundary delta.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
)

// config is one benchmark invocation. The zero value of every sizing
// field means the documented default; tests shrink them.
type config struct {
	workload string
	warm     bool // pools hold the data and are never dropped
	seed     int64
	seconds  float64 // of the whole run; each part gets its share
	trace    bool

	setupReps int // set-ups per run; setup_s is their median

	t1Rows int // table1 rows per table

	turbSteps int // turbulence timesteps stored

	nbodySnapshots int // ingest-dml snapshots per ingest round

	// udfWrap, when set, wraps dbo.EmptyFunction after set-up. Only the
	// attribution test uses it, to slow one layer call from outside.
	udfWrap func(engine.ScalarFunc) engine.ScalarFunc
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Detail, printed on the line before the summary.
	samples  map[string]int       // sample count behind each timing
	delta    obs.Snapshot         // registry delta over the measured loop
	udfDelta engine.BoundaryStats // FuncRegistry.Stats delta over the loop
	parts    map[string]*result   // a whole run's part results
	failures []string             // first few failed checks, for stderr

	// Pages on disk and user payload of a part's stored data, in bytes,
	// for storage_bytes_per_user_byte.
	storedBytes, userBytes float64
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}, parts: map[string]*result{}}
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// Only a run whose every sample failed has nothing to report;
		// its failures already mark it incorrect.
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setTiming stores a timing with the number of samples behind it.
func (r *result) setTiming(name, unit string, v float64, n int) {
	r.set(name, unit, v)
	r.samples[name] = n
}

// fail records a wrong answer or a failed call as one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check records a whole-run correctness condition that is not tied to
// one operation (final table state, state after crash recovery).
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// workloads maps each workload to its warm flag.
var workloads = map[string]bool{"cold": false, "warm": true}

// part is one of the three loops every run goes through, with its share
// of --seconds. Its name prefixes the metrics that every part reports
// for itself (partPrefixed) so that the run can report all three.
type part struct {
	name  string
	share float64
	start func(config) (partRun, error) // sets the part up
}

// partRun is a part that has been set up. The run hands out its time in
// slices, each part in turn, so that each part's samples spread over the
// whole run: a phase in which the host runs slow then falls on all
// three parts instead of on one of them.
type partRun interface {
	slice(d time.Duration) error // continues the part's loop for d
	finish() (*result, error)    // checks the end state, reports
}

// The dml part comes first: its set-up ingests, and collects the heap
// before each snapshot, which costs less before the other parts' data
// is on it.
var parts = []part{
	{"dml", 0.25, startIngestDML},
	{"t1", 0.35, startTable1},
	{"turb", 0.40, startTurbulence},
}

var partPrefixed = []string{"pages.", "go.", "trace.", "client."}

// runSlices is how many slices of its time each part gets.
const runSlices = 6

// run sets every part up, runs their slices in turn and merges their
// results. Each slice starts on a collected heap, so that no part pays
// for collecting another's garbage. setup_s is the sum of the parts'
// set-up medians; storage_bytes_per_user_byte is over the data of every
// part that stores some.
func run(cfg config) (*result, error) {
	runs := make([]partRun, len(parts))
	for i, p := range parts {
		t0 := time.Now()
		r, err := p.start(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		runs[i] = r
		fmt.Fprintf(os.Stderr, "perfbench: %s: set up in %.1f s\n", p.name, time.Since(t0).Seconds())
	}
	for s := 0; s < runSlices; s++ {
		for i, p := range parts {
			runtime.GC()
			if err := runs[i].slice(time.Duration(cfg.seconds * p.share / runSlices * float64(time.Second))); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
		}
	}
	total := newResult()
	for i, p := range parts {
		t0 := time.Now()
		res, err := runs[i].finish()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: finished in %.1f s\n", p.name, time.Since(t0).Seconds())
		if err := total.merge(p.name, res); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		total.set("storage_bytes_per_user_byte", "B/B", total.storedBytes/total.userBytes)
	}
	return total, nil
}

func (r *result) merge(name string, p *result) error {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	r.Correct = r.Correct && p.Correct
	for _, f := range p.failures {
		r.failures = append(r.failures, name+": "+f)
	}
	r.storedBytes += p.storedBytes
	r.userBytes += p.userBytes
	r.parts[name] = p
	for metricName, m := range p.Metrics {
		if metricName == "setup_s" {
			m.Value += r.Metrics[metricName].Value
			r.Metrics[metricName] = m
			continue
		}
		for _, prefix := range partPrefixed {
			if strings.HasPrefix(metricName, prefix) {
				metricName = name + "." + metricName
				break
			}
		}
		if _, dup := r.Metrics[metricName]; dup {
			return fmt.Errorf("%s: metric %s reported by two parts", name, metricName)
		}
		r.Metrics[metricName] = m
	}
	return nil
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "cold | warm")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	warm, ok := workloads[cfg.workload]
	if !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	cfg.warm = warm
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if err := writeReport(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// writeReport prints one line per metric, then the detail line, then
// the summary object as the last line.
func writeReport(w io.Writer, cfg config, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	partDetail := map[string]any{}
	for name, p := range res.parts {
		partDetail[name] = map[string]any{
			"samples":        p.samples,
			"registry_delta": p.delta,
			"udf_delta":      map[string]uint64{"calls": p.udfDelta.Calls, "bytes_marshaled": p.udfDelta.BytesMarshaled},
		}
	}
	detail, err := json.Marshal(map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"trace":    cfg.trace,
		"parts":    partDetail,
	})
	if err != nil {
		return err
	}
	summary, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, summary)
	return err
}
