package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sqlarray"
	"sqlarray/internal/engine"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
)

// The t1 part: the paper's §6.3 experiment. SetupTable1 builds Tscalar
// (five FLOAT columns) and Tvector (one 5-vector blob per row) over the
// same rows; the five Table1Queries run round-robin. In the cold
// workload each query starts after DropCleanBuffers, as §6.3 ran them on
// a cold cache; in the warm one the pool keeps both tables. It stresses
// the page miss path (cold), B+tree leaf iteration, row decode and the
// batch executor, and on Q4/Q5 the UDF boundary; it barely touches
// blobs or the WAL.
const (
	t1DefaultRows = 100_000
	// t1PoolPages holds both tables (about 3.8k pages at 100k rows), so
	// the warm workload and the warm fetch probe see hits, not evictions.
	t1PoolPages      = 32768
	defaultSetupReps = 3
	t1UserRowBytes   = 2 * 6 * 8 // id + five float64, in each of the two tables
)

var t1MetricNames = [5]string{
	"t1_q1_count_scalar_ms",
	"t1_q2_count_vector_ms",
	"t1_q3_sum_scalar_ms",
	"t1_q4_sum_item_udf_ms",
	"t1_q5_sum_empty_udf_ms",
}

// t1Orders is the part's seeded input: the order in which the five
// queries run in each round, a fresh permutation per round. The table
// contents are SetupTable1's, fixed by the paper's experiment.
type t1Orders struct{ rng *rand.Rand }

func newT1Orders(seed int64) *t1Orders { return &t1Orders{rng: rand.New(rand.NewSource(seed))} }

func (o *t1Orders) next() []int { return o.rng.Perm(len(sqlarray.Table1Queries)) }

// t1Expected returns the five answers implied by SetupTable1's values:
// row i holds x = (i mod 1000)/1000 as v1 and as the vector's item 0.
func t1Expected(rows int) [5]float64 {
	var total int64
	for i := 0; i < rows; i++ {
		total += int64(i % 1000)
	}
	s := float64(total) / 1000
	return [5]float64{float64(rows), float64(rows), s, s, 0}
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func setupTable1(cfg config, rows int) (*sqlarray.Database, samples, error) {
	var setups samples
	var db *sqlarray.Database
	for i := 0; i < cfg.setupReps; i++ {
		db = nil
		runtime.GC()
		t0 := time.Now()
		d, err := sqlarray.OpenDatabase(sqlarray.Options{PoolPages: t1PoolPages})
		if err != nil {
			return nil, nil, err
		}
		if err := sqlarray.SetupTable1(d, rows); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		db = d
	}
	if cfg.udfWrap != nil {
		def, err := db.Funcs().Lookup("dbo.EmptyFunction")
		if err != nil {
			return nil, nil, err
		}
		db.Funcs().Register("dbo.EmptyFunction", def.Arity, cfg.udfWrap(def.Fn))
	}
	return db, setups, nil
}

// t1Run is one side's per-query samples.
type t1Run struct {
	wall    [5]samples // ms
	cpu     [5]samples // ms of process CPU (both scan workers)
	ioRate  [5]samples // MB/s of pages read
	scan    [5]samples // traced: Scan operator self time, ms
	project [5]samples // traced: Project operator self time, ms
	queries int
}

func (r *t1Run) sumOfMedians() float64 {
	s := 0.0
	for _, w := range r.wall {
		s += w.median()
	}
	return s
}

// t1Part is the t1 part between set-up and the end of the run.
type t1Part struct {
	cfg    config
	db     *sqlarray.Database
	rows   int
	want   [5]float64
	orders *t1Orders
	setups samples
	res    *result

	plain, traced *t1Run
	layer         obs.Snapshot // registry and UDF deltas of traced queries
	before        obs.Snapshot
	udf0          engine.BoundaryStats
	gs            goStats
	round         int
}

func startTable1(cfg config) (partRun, error) {
	if cfg.setupReps == 0 {
		cfg.setupReps = defaultSetupReps
	}
	rows := cfg.t1Rows
	if rows == 0 {
		rows = t1DefaultRows
	}
	db, setups, err := setupTable1(cfg, rows)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return &t1Part{
		cfg: cfg, db: db, rows: rows, want: t1Expected(rows), orders: newT1Orders(cfg.seed),
		setups: setups, res: newResult(),
		plain: &t1Run{}, traced: &t1Run{}, layer: obs.Snapshot{},
		before: db.Metrics().Snapshot(), udf0: db.Funcs().Stats(),
		round: -1,
	}, nil
}

// slice runs the queries round-robin for d, each on a cold pool unless
// the workload is warm. The part's first round, checked but not timed,
// loads the pool in the warm case. In a traced run every other round
// carries an engine QueryTrace per query, whose plan tree gives
// per-operator self times and whose delta is added to layer; plain and
// traced rounds then see the same state, so their difference is the
// tracing overhead.
func (p *t1Part) slice(d time.Duration) error {
	db, res := p.db, p.res
	reg, udf := db.Metrics(), db.Funcs()
	p.gs.start()
	defer p.gs.stop()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); p.round++ {
		isTraced := p.cfg.trace && p.round%2 == 1
		run := p.plain
		switch {
		case p.round < 0:
			run = &t1Run{}
		case isTraced:
			run = p.traced
		}
		for _, qi := range p.orders.next() {
			if !p.cfg.warm {
				if err := db.DropCleanBuffers(); err != nil {
					return err
				}
			}
			var opts sqlarray.ExecOptions
			if isTraced {
				opts.Trace = &obs.QueryTrace{}
			}
			udf0 := udf.Stats()
			bytes0 := reg.Snapshot().Get("pages.bytes_read")
			cpu0 := cpuTime()
			t0 := time.Now()
			out, err := db.QueryWith(sqlarray.Table1Queries[qi], opts)
			wall := time.Since(t0)
			cpu := cpuTime() - cpu0
			res.Attempted++
			run.queries++
			if err != nil {
				res.fail("Q%d: %v", qi+1, err)
				continue
			}
			v, err := out.Scalar()
			if err != nil {
				res.fail("Q%d: %v", qi+1, err)
				continue
			}
			got, err := v.AsFloat()
			if err != nil || !closeTo(got, p.want[qi]) {
				res.fail("Q%d = %v, want %v", qi+1, v, p.want[qi])
				continue
			}
			run.wall[qi] = append(run.wall[qi], ms(wall))
			run.cpu[qi] = append(run.cpu[qi], ms(cpu))
			run.ioRate[qi] = append(run.ioRate[qi], float64(reg.Snapshot().Get("pages.bytes_read")-bytes0)/1e6/wall.Seconds())
			if isTraced {
				scan, project := operatorSelfTimes(opts.Trace.Plan)
				run.scan[qi] = append(run.scan[qi], scan)
				run.project[qi] = append(run.project[qi], project)
				for name, v := range opts.Trace.Delta {
					p.layer[name] += v
				}
				u := udfDelta(udf.Stats(), udf0)
				p.layer["udf.calls"] += u.Calls
				p.layer["udf.bytes_marshaled"] += u.BytesMarshaled
			}
		}
	}
	return nil
}

// operatorSelfTimes sums, in ms, the self time (own time minus its
// children's) of the plan's scan operators and of its Project
// operators. With two or more CPUs the aggregate runs inside the
// parallel scan node, so aggregation counts as scan time.
func operatorSelfTimes(plan *obs.PlanNode) (scan, project float64) {
	if plan == nil {
		return 0, 0
	}
	plan.Walk(func(n *obs.PlanNode) {
		self := n.Time
		for _, c := range n.Children {
			self -= c.Time
		}
		switch {
		case strings.Contains(n.Name, "Scan"):
			scan += ms(self)
		case n.Name == "Project":
			project += ms(self)
		}
	})
	return scan, project
}

func (p *t1Part) finish() (*result, error) {
	db, res, plain, traced, rows := p.db, p.res, p.plain, p.traced, p.rows
	res.delta = db.Metrics().Snapshot().Delta(p.before)
	res.udfDelta = udfDelta(db.Funcs().Stats(), p.udf0)
	res.storedBytes = float64(db.Pool().Disk().NumPages()) * pages.PageSize
	res.userBytes = float64(rows * t1UserRowBytes)

	if !p.cfg.trace {
		res.setTiming("setup_s", "s", p.setups.median(), len(p.setups))
		for qi, name := range t1MetricNames {
			res.setTiming(name, "ms", plain.wall[qi].median(), len(plain.wall[qi]))
		}
		return res, nil
	}

	p.gs.report(res, res.Attempted)
	n := traced.queries
	layer := p.layer
	perOp(res, layer, n, map[string]string{
		"pages.logical_reads":  "count",
		"pages.physical_reads": "count",
		"pages.evictions":      "count",
	})
	res.set("pages.hit_ratio", "ratio", hitRatio(layer))
	res.set("engine.udf_calls", "count", float64(layer.Get("udf.calls"))/float64(n))
	res.set("engine.udf_bytes_marshaled", "B", float64(layer.Get("udf.bytes_marshaled"))/float64(n))
	for qi := range sqlarray.Table1Queries {
		q := fmt.Sprintf("t1_q%d", qi+1)
		res.setTiming("sqlmini."+q+".scan.self_ms", "ms", traced.scan[qi].median(), len(traced.scan[qi]))
		res.setTiming("sqlmini."+q+".project.self_ms", "ms", traced.project[qi].median(), len(traced.project[qi]))
		// The process CPU clock advances in scheduler ticks, so CPU load
		// is a ratio of sums over the query's runs, not a median.
		res.setTiming(fmt.Sprintf("table1.q%d.cpu_load_pct", qi+1), "%", 100*sum(plain.cpu[qi])/sum(plain.wall[qi]), len(plain.cpu[qi]))
		res.setTiming(fmt.Sprintf("table1.q%d.io_mb_per_s", qi+1), "MB/s", plain.ioRate[qi].median(), len(plain.ioRate[qi]))
	}
	q3, q4, q5 := plain.wall[2].median(), plain.wall[3].median(), plain.wall[4].median()
	res.set("udf.per_call_ns", "ns", (q4-q3)*1e6/float64(rows))
	res.set("udf.boundary_share", "ratio", (q5-q3)/q5)
	res.set("trace.overhead_pct", "%", 100*(traced.sumOfMedians()-plain.sumOfMedians())/plain.sumOfMedians())

	if err := t1Probes(db, res, rows, p.want); err != nil {
		return nil, err
	}
	return res, nil
}

// t1Probes times single layer calls directly: buffer-pool fetches over
// every page of the database, cold and warm; a cold cursor pass over
// Tscalar; and UDF boundary calls over every Tvector blob.
func t1Probes(db *sqlarray.Database, res *result, rows int, want [5]float64) error {
	const reps = 5
	pool, reg := db.Pool(), db.Metrics()
	physical := func() uint64 { return reg.Snapshot().Get("pages.physical_reads") }
	npages := pool.Disk().NumPages()
	var miss, hit samples
	fetchAll := func() (time.Duration, error) {
		t0 := time.Now()
		for id := 0; id < npages; id++ {
			f, err := pool.Fetch(pages.PageID(id))
			if err != nil {
				return 0, err
			}
			pool.Unpin(f, false)
		}
		return time.Since(t0), nil
	}
	for i := 0; i < reps; i++ {
		if err := db.DropCleanBuffers(); err != nil {
			return err
		}
		phys0 := physical()
		cold, err := fetchAll()
		if err != nil {
			return fmt.Errorf("fetch probe: %w", err)
		}
		read := physical() - phys0
		res.check(read == uint64(npages), "cold fetch probe read %d of %d pages", read, npages)
		warm, err := fetchAll()
		if err != nil {
			return fmt.Errorf("fetch probe: %w", err)
		}
		miss = append(miss, float64(cold)/float64(npages))
		hit = append(hit, float64(warm)/float64(npages))
	}
	res.setTiming("pages.miss_fetch_ns", "ns", miss.median(), len(miss))
	res.setTiming("pages.hit_fetch_ns", "ns", hit.median(), len(hit))

	ts, err := db.Table("Tscalar")
	if err != nil {
		return err
	}
	var scan, scanSelf samples
	for i := 0; i < reps; i++ {
		if err := db.DropCleanBuffers(); err != nil {
			return err
		}
		phys0 := physical()
		total := 0.0
		t0 := time.Now()
		cur, err := ts.Cursor()
		if err != nil {
			return err
		}
		for {
			n, err := cur.FillBatch(1024, func(_ int64, row *engine.RowView) error {
				v, err := row.Col(1)
				total += v.F
				return err
			})
			if err != nil {
				cur.Close()
				return fmt.Errorf("scan probe: %w", err)
			}
			if n < 1024 {
				break
			}
		}
		cur.Close()
		d := time.Since(t0)
		res.check(closeTo(total, want[2]), "scan probe sum %v, want %v", total, want[2])
		fetchShare := float64(physical()-phys0) * miss.median()
		scan = append(scan, float64(d)/float64(rows))
		scanSelf = append(scanSelf, (float64(d)-fetchShare)/float64(rows))
	}
	res.setTiming("engine.scan_ns_per_row", "ns", scan.median(), len(scan))
	res.setTiming("engine.scan_self_ns_per_row", "ns", scanSelf.median(), len(scanSelf))

	tv, err := db.Table("Tvector")
	if err != nil {
		return err
	}
	var blobs [][]byte
	err = tv.Scan(func(_ int64, row *engine.RowView) (bool, error) {
		v, err := row.Col(1)
		blobs = append(blobs, append([]byte(nil), v.B...))
		return true, err
	})
	if err != nil {
		return err
	}
	callAll := func(name string) (float64, float64, error) {
		def, err := db.Funcs().Lookup(name)
		if err != nil {
			return 0, 0, err
		}
		total := 0.0
		args := make([]engine.Value, 2)
		t0 := time.Now()
		for _, b := range blobs {
			args[0], args[1] = engine.BinaryValue(b), engine.IntValue(0)
			v, err := db.Funcs().Call(def, args)
			if err != nil {
				return 0, 0, err
			}
			total += v.F
		}
		return float64(time.Since(t0)) / float64(len(blobs)), total, nil
	}
	var empty, item samples
	for i := 0; i < reps; i++ {
		e, esum, err := callAll("dbo.EmptyFunction")
		if err != nil {
			return fmt.Errorf("udf probe: %w", err)
		}
		it, isum, err := callAll("floatarray.item_1")
		if err != nil {
			return fmt.Errorf("udf probe: %w", err)
		}
		res.check(esum == 0 && closeTo(isum, want[3]), "udf probe sums %v, %v", esum, isum)
		empty = append(empty, e)
		item = append(item, it)
	}
	res.setTiming("engine.udf_empty_call_ns", "ns", empty.median(), len(empty))
	res.setTiming("tsql.item_call_ns", "ns", item.median(), len(item))
	return nil
}

func udfDelta(after, before engine.BoundaryStats) engine.BoundaryStats {
	return engine.BoundaryStats{
		Calls:          after.Calls - before.Calls,
		BytesMarshaled: after.BytesMarshaled - before.BytesMarshaled,
	}
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
