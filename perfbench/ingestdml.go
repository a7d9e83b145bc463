package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sqlarray"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/nbody"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
	"sqlarray/internal/sqlmini"
	"sqlarray/internal/wal"
)

// The dml part: the write side. The WAL sits on wal.MemStorage and every
// statement syncs on commit; data pages live on a MemDisk; a checkpoint
// runs every dmlCheckpointEvery statements. That flush policy is fixed,
// so the numbers measure the log path and not a disk. First n-body
// snapshots are ingested through BucketStore.AddSnapshot (the COPY
// path). Then a closed loop of DML runs over a 2000-row table: a
// 50-key range UPDATE, a point DELETE, a single-row INSERT and a §8
// subarray UPDATE, in that order. Every dmlSnapshotLag statements a
// SELECT COUNT/SUM runs pinned to the snapshot taken dmlSnapshotLag
// statements earlier, so version-sidecar reads happen deterministically
// with one client. The pool holds the DML table in both workloads: this
// is the part whose data fits in the cache. The ingest is a fixed amount
// of work; the part's share of the run's seconds goes to the DML loop.
const (
	dmlRows            = 2000
	dmlArrayLen        = 8
	dmlRangeKeys       = 50
	dmlPoolPages       = 8192
	dmlSnapshotLag     = 16
	dmlCheckpointEvery = 1024

	nbodyParticles        = 8192
	nbodyBucket           = 2000
	nbodyParticleBytes    = 8 + 3*8 + 3*8 // id, position, velocity
	nbodyDefaultSnapshots = 64
	nbodyCheckpointEvery  = 16 // snapshots; bounds the in-memory log
	nbodyIngestRounds     = 3  // the first only warms the heap
)

var dmlCols = sqlarray.ArrayColumns{"m": "FloatArrayMax"}

// dmlRow is the model's copy of one row of table t.
type dmlRow struct {
	x float64 // integer-valued, so SUM(x) is exact in any order
	n int64
	m [dmlArrayLen]float64
}

// dmlModel is the expected content of table t (key → row). Keys live in
// [0, dmlRows): DELETE opens a hole and INSERT refills one, so the
// range UPDATE always finds about 50 rows.
type dmlModel struct {
	rows  map[int64]*dmlRow
	live  []int64
	pos   map[int64]int
	holes []int64
	sumX  float64
}

func (m *dmlModel) add(k int64, r *dmlRow) {
	m.rows[k] = r
	m.pos[k] = len(m.live)
	m.live = append(m.live, k)
	m.sumX += r.x
}

func (m *dmlModel) remove(k int64) {
	i := m.pos[k]
	last := m.live[len(m.live)-1]
	m.live[i], m.pos[last] = last, i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, k)
	m.sumX -= m.rows[k].x
	delete(m.rows, k)
	m.holes = append(m.holes, k)
}

// dmlStmt is one generated statement and what it must do.
type dmlStmt struct {
	sql       string
	sugar     bool // §8 subscript syntax, translated before parsing
	affected  int64
	userBytes int // bytes of column values the statement writes
}

// dmlGen is the part's seeded input: the initial rows and the
// statement stream. Each statement is generated against the model and
// applied to it, so the model always holds what the table must hold.
type dmlGen struct {
	rng   *rand.Rand
	model *dmlModel
	i     int
}

func newDMLGen(seed int64) (*dmlGen, [][]engine.Value) {
	g := &dmlGen{
		rng:   rand.New(rand.NewSource(seed)),
		model: &dmlModel{rows: map[int64]*dmlRow{}, pos: map[int64]int{}},
	}
	rows := make([][]engine.Value, dmlRows)
	for k := int64(0); k < dmlRows; k++ {
		r := g.randomRow()
		g.model.add(k, r)
		arr, err := core.FromFloat64s(core.Max, core.Float64, r.m[:], dmlArrayLen)
		if err != nil {
			panic(err) // a fixed-length float vector always builds
		}
		rows[k] = []engine.Value{engine.IntValue(k), engine.FloatValue(r.x), engine.IntValue(r.n), engine.BinaryMaxValue(arr.Bytes())}
	}
	return g, rows
}

func (g *dmlGen) randomRow() *dmlRow {
	r := &dmlRow{x: float64(g.rng.Intn(1000)), n: g.rng.Int63n(1 << 40)}
	for j := range r.m {
		r.m[j] = float64(g.rng.Intn(1000))
	}
	return r
}

func (g *dmlGen) next() dmlStmt {
	m := g.model
	kind := g.i % 4
	g.i++
	switch kind {
	case 0:
		lo := g.rng.Int63n(dmlRows - dmlRangeKeys + 1)
		var n int64
		for k := lo; k < lo+dmlRangeKeys; k++ {
			if r, ok := m.rows[k]; ok {
				r.x++
				r.n += 7
				n++
			}
		}
		m.sumX += float64(n)
		return dmlStmt{
			sql:      fmt.Sprintf("UPDATE t SET x = x + 1, n = n + 7 WHERE id >= %d AND id < %d", lo, lo+dmlRangeKeys),
			affected: n, userBytes: 16 * int(n),
		}
	case 1:
		k := m.live[g.rng.Intn(len(m.live))]
		m.remove(k)
		return dmlStmt{sql: fmt.Sprintf("DELETE FROM t WHERE id = %d", k), affected: 1, userBytes: 8}
	case 2:
		hi := g.rng.Intn(len(m.holes))
		k := m.holes[hi]
		m.holes[hi] = m.holes[len(m.holes)-1]
		m.holes = m.holes[:len(m.holes)-1]
		r := g.randomRow()
		m.add(k, r)
		sql := fmt.Sprintf("INSERT INTO t VALUES (%d, %d.0, %d, FloatArrayMax.Vector_%d(", k, int64(r.x), r.n, dmlArrayLen)
		for j, v := range r.m {
			if j > 0 {
				sql += ", "
			}
			sql += fmt.Sprintf("%d.0", int64(v))
		}
		return dmlStmt{sql: sql + "))", affected: 1, userBytes: 8 + 8 + 8 + 8*dmlArrayLen}
	default:
		k := m.live[g.rng.Intn(len(m.live))]
		a := g.rng.Intn(dmlArrayLen - 1)
		v0, v1 := float64(g.rng.Intn(1000)), float64(g.rng.Intn(1000))
		m.rows[k].m[a], m.rows[k].m[a+1] = v0, v1
		return dmlStmt{
			sql:   fmt.Sprintf("UPDATE t SET m[%d:%d] = FloatArray.Vector_2(%d.0, %d.0) WHERE id = %d", a, a+2, int64(v0), int64(v1), k),
			sugar: true, affected: 1, userBytes: 16,
		}
	}
}

// nbodySnapshots is the part's seeded ingest input: a clustered
// particle snapshot and its evolution, one per step.
func nbodySnapshots(seed int64, steps int) ([]*nbody.Snapshot, error) {
	s, err := nbody.GenerateSnapshot(nbody.GenParams{N: nbodyParticles, NHalos: 16, HaloFrac: 0.5, HaloR: 0.02, Seed: seed})
	if err != nil {
		return nil, err
	}
	snaps := []*nbody.Snapshot{s}
	for len(snaps) < steps {
		snaps = append(snaps, nbody.Evolve(snaps[len(snaps)-1], 0.01))
	}
	return snaps, nil
}

// dmlDB is one durable database of the part and what recovery
// needs to reopen it after a crash.
type dmlDB struct {
	db      *sqlarray.Database
	disk    *pages.MemDisk
	storage *wal.MemStorage
	bodies  *nbody.BucketStore
}

func openDML(disk *pages.MemDisk, storage *wal.MemStorage) (*sqlarray.Database, error) {
	log, err := wal.Open(storage, wal.Options{})
	if err != nil {
		return nil, err
	}
	return sqlarray.OpenDatabase(sqlarray.Options{Disk: disk, WAL: log, PoolPages: dmlPoolPages})
}

func setupDML(cfg config, rows [][]engine.Value, snap0 *nbody.Snapshot) (*dmlDB, samples, error) {
	var setups samples
	var out *dmlDB
	schema, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "x", Type: engine.ColFloat64},
		engine.Column{Name: "n", Type: engine.ColInt64},
		engine.Column{Name: "m", Type: engine.ColVarBinaryMax},
	)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < cfg.setupReps; i++ {
		out = nil
		runtime.GC()
		t0 := time.Now()
		d := &dmlDB{disk: pages.NewMemDisk(), storage: wal.NewMemStorage()}
		if d.db, err = openDML(d.disk, d.storage); err != nil {
			return nil, nil, err
		}
		if _, err := d.db.CreateTable("t", schema); err != nil {
			return nil, nil, err
		}
		if _, err := d.db.Copy("t", sqlarray.NewValuesSource(rows), sqlarray.BulkOptions{}); err != nil {
			return nil, nil, err
		}
		if d.bodies, err = nbody.CreateBucketStore(d.db.DB, "nbody", snap0, nbodyBucket); err != nil {
			return nil, nil, err
		}
		if err := d.db.Checkpoint(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		out = d
	}
	return out, setups, nil
}

// heldSnapshot is a snapshot kept open for dmlSnapshotLag statements
// with the aggregates the model had when it was taken.
type heldSnapshot struct {
	snap  *engine.Snapshot
	count int64
	sumX  float64
}

// dmlPart is the dml part between set-up and the end of the run.
type dmlPart struct {
	cfg    config
	d      *dmlDB
	gen    *dmlGen
	snaps  []*nbody.Snapshot
	nsnap  int
	setups samples
	res    *result

	rates       samples      // ingest MB/s per snapshot
	ingestDelta obs.Snapshot // registry delta of the measured ingest round

	held                           *heldSnapshot
	plain, plainCPU, traced, scans samples
	userBytes                      int
	tr                             *tracer
	before                         obs.Snapshot
	udf0                           engine.BoundaryStats
	syncBounds                     []float64
	syncBefore                     []uint64
	gs                             goStats
	stmts                          int
}

// startIngestDML sets the part up and runs its ingest, a fixed amount of
// work. One COPY per snapshot, nbodyDefaultSnapshots per round. Every
// round but the last goes into a scratch copy of the database that is
// thrown away after it, the last into the measured one, so memory stays
// bounded while the rate rests on several rounds. The first round only
// warms the process heap, as a server that has been ingesting would
// have it, and its rates are not kept.
func startIngestDML(cfg config) (partRun, error) {
	if cfg.setupReps == 0 {
		cfg.setupReps = defaultSetupReps
	}
	nsnap := cfg.nbodySnapshots
	if nsnap == 0 {
		nsnap = nbodyDefaultSnapshots
	}
	gen, rows := newDMLGen(cfg.seed)
	snaps, err := nbodySnapshots(cfg.seed, nsnap+1)
	if err != nil {
		return nil, err
	}
	d, setups, err := setupDML(cfg, rows, snaps[0])
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	p := &dmlPart{cfg: cfg, d: d, gen: gen, snaps: snaps, nsnap: nsnap, setups: setups, res: newResult(), tr: &tracer{}}
	for round := 0; round < nbodyIngestRounds; round++ {
		target := d
		if round < nbodyIngestRounds-1 {
			if target, _, err = setupDML(config{setupReps: 1}, rows, snaps[0]); err != nil {
				return nil, err
			}
		}
		before := target.db.Metrics().Snapshot()
		r, err := ingest(target, snaps[1:], p.res)
		if err != nil {
			return nil, err
		}
		if round > 0 {
			p.rates = append(p.rates, r...)
		}
		p.ingestDelta = target.db.Metrics().Snapshot().Delta(before)
	}
	db, reg := d.db, d.db.Metrics()
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	p.before, p.udf0 = reg.Snapshot(), db.Funcs().Stats()
	p.syncBounds, p.syncBefore = histBuckets(reg, "wal.sync_latency")
	return p, nil
}

// slice runs the DML loop for d. A traced run alternates cycles of the
// four statements between plain Exec calls and the traced path, so both
// sides see the same table and log state and their difference is the
// tracing overhead.
func (p *dmlPart) slice(d time.Duration) error {
	db, res, gen := p.d.db, p.res, p.gen
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	p.gs.start()
	defer p.gs.stop()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); p.stmts++ {
		stmts := p.stmts
		if stmts%dmlSnapshotLag == 0 {
			if held := p.held; held != nil {
				t0 := time.Now()
				out, err := db.QueryWith("SELECT COUNT(*), SUM(x) FROM t", sqlarray.ExecOptions{Snapshot: held.snap})
				el := time.Since(t0)
				res.Attempted++
				switch {
				case err != nil:
					res.fail("snapshot scan: %v", err)
				case len(out.Rows) != 1 || out.Rows[0][0].I != held.count || out.Rows[0][1].F != held.sumX:
					res.fail("snapshot scan = %v, want [%d %v]", out.Rows, held.count, held.sumX)
				default:
					p.scans = append(p.scans, ms(el))
				}
				held.snap.Release()
			}
			p.held = &heldSnapshot{snap: db.Snapshot(), count: int64(len(gen.model.live)), sumX: gen.model.sumX}
		}
		if stmts > 0 && stmts%dmlCheckpointEvery == 0 {
			if err := db.Checkpoint(); err != nil {
				return err
			}
		}
		var t *tracer
		if p.cfg.trace && (stmts/4)%2 == 1 {
			t = p.tr
		}
		st := gen.next()
		c0 := threadCPU()
		t0 := time.Now()
		out, err := execDML(db, st, t)
		el := time.Since(t0)
		cpu := threadCPU() - c0
		res.Attempted++
		if err != nil {
			res.fail("%s: %v", st.sql, err)
			continue
		}
		if out.RowsAffected != st.affected {
			res.fail("%s affected %d rows, want %d", st.sql, out.RowsAffected, st.affected)
			continue
		}
		p.userBytes += st.userBytes
		if t == nil {
			p.plain = append(p.plain, ms(el))
			p.plainCPU = append(p.plainCPU, ms(cpu))
		} else {
			p.traced = append(p.traced, ms(el))
		}
	}
	return nil
}

func (p *dmlPart) finish() (*result, error) {
	db, res, reg := p.d.db, p.res, p.d.db.Metrics()
	plain, plainCPU, traced, tr := p.plain, p.plainCPU, p.traced, p.tr
	if p.held != nil {
		p.held.snap.Release()
	}
	res.delta = reg.Snapshot().Delta(p.before)
	res.udfDelta = udfDelta(db.Funcs().Stats(), p.udf0)

	if !p.cfg.trace {
		res.setTiming("setup_s", "s", p.setups.median(), len(p.setups))
		res.setTiming("ingest_mb_per_s", "MB/s", p.rates.median(), len(p.rates))
		res.setTiming("dml_p50_ms", "ms", plain.median(), len(plain))
		res.setTiming("dml_p99_ms", "ms", plainCPU.quantile(0.99), len(plainCPU))
		res.setTiming("snapshot_scan_ms", "ms", p.scans.median(), len(p.scans))
		res.set("wal_bytes_per_user_byte", "B/B", float64(res.delta.Get("wal.bytes_logged"))/float64(p.userBytes))
	} else {
		n := len(plain) + len(traced)
		p.gs.report(res, n)
		_, syncAfter := histBuckets(reg, "wal.sync_latency")
		res.set("wal.sync_latency_p50_us", "us", 1e6*histQuantile(p.syncBounds, p.syncBefore, syncAfter, 0.5))
		perOp(res, res.delta, n, map[string]string{
			"pages.logical_reads":         "count",
			"pages.snapshot_reads":        "count",
			"pages.cow_copies":            "count",
			"wal.records":                 "count",
			"wal.bytes_logged":            "B",
			"wal.syncs":                   "count",
			"wal.group_commit_piggybacks": "count",
			"engine.commits":              "count",
		})
		perOp(res, p.ingestDelta, p.nsnap, map[string]string{
			"engine.bulk_leaf_pages": "count",
			"engine.bulk_blob_pages": "count",
		})
		parse := tr.durations("sqlmini.parse")
		execute := tr.durations("sqlmini.execute")
		res.setTiming("sqlmini.parse_us", "us", parse.median()/1e3, len(parse))
		res.setTiming("sqlmini.execute_us", "us", execute.median()/1e3, len(execute))
		res.set("trace.overhead_pct", "%", 100*(traced.median()-plain.median())/plain.median())
		res.set("client.offcpu_pct", "%", offCPUPct(plain, plainCPU))
	}
	return res, dmlVerify(p.d, p.gen.model, p.snaps, res)
}

// ingest adds every snapshot through BucketStore.AddSnapshot and
// returns each one's particle payload rate in MB/s. Each snapshot
// starts from a settled heap, as the repository's Table 1 harness
// settles it before each query, so its time does not depend on where
// the garbage collector's cycle stood when it began.
func ingest(d *dmlDB, snaps []*nbody.Snapshot, res *result) (samples, error) {
	var rates samples
	for _, s := range snaps {
		runtime.GC()
		t0 := time.Now()
		err := d.bodies.AddSnapshot(s, nbodyBucket)
		el := time.Since(t0)
		res.Attempted++
		if err != nil {
			res.fail("AddSnapshot step %d: %v", s.Step, err)
			continue
		}
		rates = append(rates, float64(len(s.Particles)*nbodyParticleBytes)/1e6/el.Seconds())
		if s.Step%nbodyCheckpointEvery == 0 {
			if err := d.db.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	return rates, nil
}

// execDML runs one statement. Traced, it makes the calls Exec makes
// (subscript translation, ParseStatement, ExecuteStmt) one at a time
// inside spans.
func execDML(db *sqlarray.Database, st dmlStmt, tr *tracer) (*sqlarray.ExecResult, error) {
	if tr == nil {
		if st.sugar {
			return db.ExecArray(st.sql, dmlCols)
		}
		return db.Exec(st.sql)
	}
	tr.begin("dml.statement")
	defer tr.end()
	sql := st.sql
	if st.sugar {
		tr.begin("arraysugar.translate")
		var err error
		sql, err = sqlarray.TranslateArraySyntax(sql, dmlCols)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	tr.begin("sqlmini.parse")
	stmt, err := sqlmini.ParseStatement(sql)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("sqlmini.execute")
	defer tr.end()
	return sqlmini.ExecuteStmt(db.DB, stmt, sqlmini.ExecOptions{})
}

// dmlVerify checks the end state: table t equals the model, every
// ingested snapshot reads back, and after MemStorage.Crash and a
// reopen over the same disk every committed statement is still there.
func dmlVerify(d *dmlDB, model *dmlModel, snaps []*nbody.Snapshot, res *result) error {
	if err := dmlCompare(d.db, model, "before crash", res); err != nil {
		return err
	}
	for _, s := range snaps {
		got, err := d.bodies.LoadSnapshot(s.Step)
		if err != nil {
			return err
		}
		res.check(sameParticles(got, s), "n-body step %d reads back different particles", s.Step)
	}
	bodiesTbl, err := d.db.Table("nbody")
	if err != nil {
		return err
	}
	buckets := bodiesTbl.Rows()
	if pins := d.db.Pool().PinnedFrames(); pins != 0 {
		res.check(false, "%d frames pinned at quiesce", pins)
	}

	d.storage.Crash()
	db, err := openDML(d.disk, d.storage)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	if err := dmlCompare(db, model, "after crash", res); err != nil {
		return err
	}
	bodiesTbl, err = db.Table("nbody")
	if err != nil {
		return err
	}
	res.check(bodiesTbl.Rows() == buckets, "after crash: %d n-body buckets, want %d", bodiesTbl.Rows(), buckets)
	return nil
}

func dmlCompare(db *sqlarray.Database, model *dmlModel, when string, res *result) error {
	t, err := db.Table("t")
	if err != nil {
		return err
	}
	seen := 0
	err = t.Scan(func(key int64, row *engine.RowView) (bool, error) {
		seen++
		want, ok := model.rows[key]
		if !ok {
			res.check(false, "%s: unexpected key %d", when, key)
			return true, nil
		}
		x, err := row.Col(1)
		if err != nil {
			return false, err
		}
		n, err := row.Col(2)
		if err != nil {
			return false, err
		}
		mv, err := row.Col(3)
		if err != nil {
			return false, err
		}
		payload, err := t.FetchBlob(mv.B)
		if err != nil {
			return false, err
		}
		arr, err := core.Wrap(payload)
		if err != nil {
			return false, err
		}
		got := arr.Float64s()
		same := x.F == want.x && n.I == want.n && len(got) == dmlArrayLen
		for j := 0; same && j < dmlArrayLen; j++ {
			same = got[j] == want.m[j]
		}
		res.check(same, "%s: row %d = (%v, %v, %v), want %+v", when, key, x.F, n.I, got, *want)
		return true, nil
	})
	if err != nil {
		return fmt.Errorf("%s: scan t: %w", when, err)
	}
	res.check(seen == len(model.rows), "%s: table has %d rows, model %d", when, seen, len(model.rows))
	return nil
}

func sameParticles(got, want *nbody.Snapshot) bool {
	if len(got.Particles) != len(want.Particles) {
		return false
	}
	byID := make(map[int64]nbody.Particle, len(want.Particles))
	for _, p := range want.Particles {
		byID[p.ID] = p
	}
	for _, p := range got.Particles {
		if w, ok := byID[p.ID]; !ok || w != p {
			return false
		}
	}
	return true
}
