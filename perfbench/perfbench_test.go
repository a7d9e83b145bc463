package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlarray/internal/engine"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smallConfig shrinks a run so it takes a few seconds.
func smallConfig(workload string, seed int64, trace bool) config {
	return config{
		workload: workload, warm: workloads[workload], seed: seed, seconds: 1, trace: trace,
		setupReps: 1, t1Rows: 5000, turbSteps: 2, nbodySnapshots: 2,
	}
}

// checked fails the test unless res is a correct run with no failed
// operation.
func checked(t *testing.T, cfg config, res *result, err error) *result {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
			cfg.workload, cfg.trace, res.Correct, res.Attempted, res.Failed, res.failures)
	}
	return res
}

func runWorkload(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	return checked(t, cfg, res, err)
}

// runPart runs one part alone, for all of cfg.seconds.
func runPart(start func(config) (partRun, error), cfg config) (*result, error) {
	p, err := start(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.slice(time.Duration(cfg.seconds * float64(time.Second))); err != nil {
		return nil, err
	}
	return p.finish()
}

// TestSmoke runs every workload briefly, plain and traced, and checks
// that each prints exactly the end-to-end (plain) or per-layer (traced)
// metrics of BENCHMARK.json with their units, that the last output line
// is the summary object, and that no operation failed.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json declares workload %s, the benchmark has none", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := smallConfig(w.Name, 1, trace)
			res := runWorkload(t, cfg)
			var got, wantNames []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			if !sameSet(got, wantNames) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.Name, trace, got, wantNames)
			}
			var out bytes.Buffer
			if err := writeReport(&out, cfg, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			var keys []string
			for k := range summary {
				keys = append(keys, k)
			}
			if !sameSet(keys, []string{"correct", "attempted", "failed", "metrics"}) {
				t.Errorf("%s: summary keys %v", w.Name, keys)
			}
			for name, m := range res.Metrics {
				if !strings.Contains(out.String(), name) || !strings.Contains(out.String(), m.Unit) {
					t.Errorf("%s: %s not printed with its unit", w.Name, name)
				}
			}
		}
	}
}

func sameSet(a, b []string) bool {
	set := map[string]int{}
	for _, x := range a {
		set[x]++
	}
	for _, x := range b {
		set[x]--
	}
	for _, n := range set {
		if n != 0 {
			return false
		}
	}
	return true
}

// spin busy-waits, standing in for a slower UDF boundary.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestAttribution slows one layer call from outside, in the wrapper
// around dbo.EmptyFunction that FuncRegistry.Call dispatches to. The
// UDF layer's own time and Q5 must move; the page-fetch miss path
// must not.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const delay = 2 * time.Microsecond
	const rows = 20000
	slow := func(fn engine.ScalarFunc) engine.ScalarFunc {
		return func(args []engine.Value) (engine.Value, error) {
			spin(delay)
			return fn(args)
		}
	}
	run := func(trace bool, wrap func(engine.ScalarFunc) engine.ScalarFunc) map[string]metric {
		cfg := smallConfig("cold", 1, trace)
		cfg.t1Rows, cfg.seconds, cfg.udfWrap = rows, 3, wrap
		res, err := runPart(startTable1, cfg)
		return checked(t, cfg, res, err).Metrics
	}
	base, slowed := run(false, nil), run(false, slow)
	baseLayer, slowedLayer := run(true, nil), run(true, slow)
	for _, name := range []string{"t1_q3_sum_scalar_ms", "t1_q5_sum_empty_udf_ms"} {
		t.Logf("%s: %.3g -> %.3g", name, base[name].Value, slowed[name].Value)
	}
	for _, name := range []string{"engine.udf_empty_call_ns", "sqlmini.t1_q5.scan.self_ms", "pages.miss_fetch_ns"} {
		t.Logf("%s: %.3g -> %.3g", name, baseLayer[name].Value, slowedLayer[name].Value)
	}

	// Q5 calls the function once per row on at most GOMAXPROCS workers;
	// expect at least a quarter of the serial added time.
	minQ5 := float64(rows) * float64(delay) / 1e6 / 4
	if d := slowed["t1_q5_sum_empty_udf_ms"].Value - base["t1_q5_sum_empty_udf_ms"].Value; d < minQ5 {
		t.Errorf("t1_q5 moved %.2f ms, want >= %.2f", d, minQ5)
	}
	if d := slowedLayer["engine.udf_empty_call_ns"].Value - baseLayer["engine.udf_empty_call_ns"].Value; d < float64(delay)/2 {
		t.Errorf("engine.udf_empty_call_ns moved %.0f ns, want >= %.0f", d, float64(delay)/2)
	}
	if d := slowedLayer["sqlmini.t1_q5.scan.self_ms"].Value - baseLayer["sqlmini.t1_q5.scan.self_ms"].Value; d < minQ5 {
		t.Errorf("Q5 scan self time moved %.2f ms, want >= %.2f", d, minQ5)
	}
	// Unrelated layers stay put: the miss path within its run-to-run
	// noise, Q3 (no UDF) well below the Q5 shift.
	b, s := baseLayer["pages.miss_fetch_ns"].Value, slowedLayer["pages.miss_fetch_ns"].Value
	if s > 1.5*b || s < b/1.5 {
		t.Errorf("pages.miss_fetch_ns moved %.0f -> %.0f ns", b, s)
	}
	if d := slowed["t1_q3_sum_scalar_ms"].Value - base["t1_q3_sum_scalar_ms"].Value; d > minQ5/2 {
		t.Errorf("t1_q3 moved %.2f ms with only the UDF slowed", d)
	}
}

// TestInputsDependOnlyOnSeed generates each part's inputs twice
// from one seed and once from another.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	t1 := func(seed int64) any {
		o := newT1Orders(seed)
		var out [][]int
		for i := 0; i < 50; i++ {
			out = append(out, o.next())
		}
		return out
	}
	turb := func(seed int64) any {
		fields, err := turbFields(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		g := newTurbBatches(seed, 2)
		var batches []*turbBatch
		for i := 0; i < 20; i++ {
			batches = append(batches, g.next())
		}
		return []any{fields[1].U[:4096], fields[0].P[:4096], batches}
	}
	dml := func(seed int64) any {
		g, rows := newDMLGen(seed)
		var sql []string
		for i := 0; i < 400; i++ {
			sql = append(sql, g.next().sql)
		}
		snaps, err := nbodySnapshots(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return []any{rows, sql, snaps[1].Particles}
	}
	for name, gen := range map[string]func(int64) any{"t1": t1, "turb": turb, "dml": dml} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: one seed gave two inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

// TestSeedMediansWithinBounds runs every workload at full length on two
// seeds and checks that the end-to-end medians of one lie within each
// metric's bound of the other's: a claim measured on one seed must hold
// on another. A discarded first run warms the process heap, and the
// seeds alternate (A B A B) so a drift in the host's speed falls on
// both.
func TestSeedMediansWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full length five times")
	}
	spec := loadSpec(t)
	full := func(workload string, seed int64) *result {
		return runWorkload(t, config{workload: workload, warm: workloads[workload], seed: seed,
			seconds: float64(spec.RunSeconds), setupReps: defaultSetupReps})
	}
	for _, w := range spec.Workloads {
		full(w.Name, 303)
		var a, b []*result
		for i := 0; i < 2; i++ {
			a = append(a, full(w.Name, 101))
			b = append(b, full(w.Name, 202))
		}
		for _, m := range spec.EndToEnd {
			if _, ok := a[0].Metrics[m.Name]; !ok {
				continue
			}
			va := (a[0].Metrics[m.Name].Value + a[1].Metrics[m.Name].Value) / 2
			vb := (b[0].Metrics[m.Name].Value + b[1].Metrics[m.Name].Value) / 2
			t.Logf("%s %s: seed 101 %.4g, seed 202 %.4g", w.Name, m.Name, va, vb)
			if math.Abs(va-vb)/math.Min(va, vb) > m.Bound {
				t.Errorf("%s %s: seeds 101 and 202 give %.4g and %.4g, beyond the bound %.2f",
					w.Name, m.Name, va, vb, m.Bound)
			}
		}
	}
}
