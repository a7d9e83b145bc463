package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sqlarray"
	"sqlarray/internal/blob"
	"sqlarray/internal/core"
	"sqlarray/internal/engine"
	"sqlarray/internal/interp"
	"sqlarray/internal/obs"
	"sqlarray/internal/pages"
	"sqlarray/internal/sfc"
	"sqlarray/internal/turbulence"
)

// The turb part: the §2.1 interpolation service. A 64³ field of four
// channels is stored for several timesteps as (16+2·4)³ MAX-array
// blobs, compressed by the engine's default codec. At four steps the
// store is about 117 MB of pages. In the cold workload the buffer pool
// is 8 MB, so the data is far larger than the cache; in the warm one the
// pool holds the whole store, loaded before timing. Each operation is
// one batch of 100 random points interpolated with the 8-point
// Lagrangian kernel through PartialRead, the small-batch side where
// server-side subsetting beats whole-blob reads (about 9 vs 29 ms per
// batch). It stresses blob directory and run reads, codec decode and
// eviction, and bypasses the scan executor and the UDF boundary.
const (
	turbGrid         = 64
	turbCube         = 16
	turbGhost        = 4
	turbModes        = 24
	turbDefaultSteps = 4
	turbPoolPages    = 1024  // 8 MB, the cold workload's pool
	turbWarmPages    = 32768 // twice the store at four steps
	turbBatchPoints  = 100
	turbWarmup       = 30 // batches run before timing, to fill the pool
	// Every turbWholeEvery-th batch is recomputed through WholeBlob and
	// compared; every batch is compared against the in-memory field.
	turbWholeEvery = 25
	turbScheme     = interp.Lag8
	// turbHotPoints is the sub-batch whose stencil pages (about 15 per
	// point) fit the pool at once, for the hot-pool interpolation probe.
	turbHotPoints = 32
)

// turbFields is the part's seeded field input, one per timestep.
func turbFields(seed int64, steps int) ([]*turbulence.Field, error) {
	fields := make([]*turbulence.Field, steps)
	for s := range fields {
		f, err := turbulence.GenerateField(turbGrid, turbModes, seed*1009+int64(s))
		if err != nil {
			return nil, err
		}
		fields[s] = f
	}
	return fields, nil
}

// turbBatches is the part's seeded query input: a timestep and
// 100 uniformly random positions (grid units) per batch.
type turbBatches struct {
	rng   *rand.Rand
	steps int
}

type turbBatch struct {
	step int
	pts  [][3]float64
	out  [][3]float64
}

func newTurbBatches(seed int64, steps int) *turbBatches {
	return &turbBatches{rng: rand.New(rand.NewSource(seed)), steps: steps}
}

func (g *turbBatches) next() *turbBatch {
	b := &turbBatch{step: g.rng.Intn(g.steps), pts: make([][3]float64, turbBatchPoints)}
	for i := range b.pts {
		for d := 0; d < 3; d++ {
			b.pts[i][d] = g.rng.Float64() * turbGrid
		}
	}
	return b
}

func setupTurbulence(cfg config, fields []*turbulence.Field) (*sqlarray.Database, *turbulence.Store, samples, error) {
	var setups samples
	var db *sqlarray.Database
	var st *turbulence.Store
	for i := 0; i < cfg.setupReps; i++ {
		db, st = nil, nil
		runtime.GC()
		t0 := time.Now()
		poolPages := turbPoolPages
		if cfg.warm {
			poolPages = turbWarmPages
		}
		d, err := sqlarray.OpenDatabase(sqlarray.Options{PoolPages: poolPages})
		if err != nil {
			return nil, nil, nil, err
		}
		s, err := turbulence.CreateStore(d.DB, "turb", fields[0], turbCube, turbGhost)
		if err != nil {
			return nil, nil, nil, err
		}
		for step := 1; step < len(fields); step++ {
			if err := s.AddSnapshot(step, fields[step]); err != nil {
				return nil, nil, nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		db, st = d, s
	}
	return db, st, setups, nil
}

// turbPart is the turb part between set-up and the end of the run.
type turbPart struct {
	cfg    config
	db     *sqlarray.Database
	st     *turbulence.Store
	fields []*turbulence.Field
	gen    *turbBatches
	setups samples
	res    *result

	batches                 []*turbBatch // measured, verified at the end
	plain, plainCPU, traced samples
	tr                      *tracer
	layer                   obs.Snapshot // registry delta of traced batches
	before                  obs.Snapshot
	udf0                    engine.BoundaryStats
	gs                      goStats
	op                      int
}

func startTurbulence(cfg config) (partRun, error) {
	if cfg.setupReps == 0 {
		cfg.setupReps = defaultSetupReps
	}
	steps := cfg.turbSteps
	if steps == 0 {
		steps = turbDefaultSteps
	}
	fields, err := turbFields(cfg.seed, steps)
	if err != nil {
		return nil, err
	}
	db, st, setups, err := setupTurbulence(cfg, fields)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if cfg.warm {
		if err := loadPool(db); err != nil {
			return nil, err
		}
	}
	gen := newTurbBatches(cfg.seed, steps)
	for i := 0; i < turbWarmup; i++ {
		b := gen.next()
		if _, err := st.VelocityBatch(b.step, b.pts, turbScheme, turbulence.PartialRead); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &turbPart{
		cfg: cfg, db: db, st: st, fields: fields, gen: gen, setups: setups, res: newResult(),
		tr: &tracer{}, layer: obs.Snapshot{},
		before: db.Metrics().Snapshot(), udf0: db.Funcs().Stats(),
	}, nil
}

// slice runs batches for d. A traced run cycles through three
// operations: a plain batch, the same kind of batch inside a span with
// its registry delta added to layer, and a probe that times the stencil
// reads from outside the service. Plain and traced batches thus see the
// same pool state, and their difference is the tracing overhead.
func (p *turbPart) slice(d time.Duration) error {
	db, st, res := p.db, p.st, p.res
	reg := db.Metrics()
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	p.gs.start()
	defer p.gs.stop()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); p.op++ {
		b := p.gen.next()
		kind := 0
		if p.cfg.trace {
			kind = p.op % 3
		}
		if kind == 2 {
			if err := turbProbe(db, st, b, p.tr); err != nil {
				res.fail("stencil probe: %v", err)
			}
			continue
		}
		c0 := threadCPU()
		t0 := time.Now()
		var t *tracer
		var snap0 obs.Snapshot
		if kind == 1 {
			t = p.tr
			snap0 = reg.Snapshot()
		}
		t.begin("turb.batch")
		out, err := st.VelocityBatch(b.step, b.pts, turbScheme, turbulence.PartialRead)
		t.end()
		if kind == 1 {
			for name, v := range reg.Snapshot().Delta(snap0) {
				p.layer[name] += v
			}
		}
		el := time.Since(t0)
		cpu := threadCPU() - c0
		res.Attempted++
		if err != nil {
			res.fail("batch: %v", err)
			continue
		}
		b.out = out
		p.batches = append(p.batches, b)
		if kind == 0 {
			p.plain = append(p.plain, ms(el))
			p.plainCPU = append(p.plainCPU, ms(cpu))
		} else {
			p.traced = append(p.traced, ms(el))
		}
	}
	return nil
}

func (p *turbPart) finish() (*result, error) {
	db, res, plain, plainCPU, traced, tr, layer := p.db, p.res, p.plain, p.plainCPU, p.traced, p.tr, p.layer
	res.delta = db.Metrics().Snapshot().Delta(p.before)
	res.udfDelta = udfDelta(db.Funcs().Stats(), p.udf0)
	res.storedBytes = float64(db.Pool().Disk().NumPages()) * pages.PageSize
	res.userBytes = float64(len(p.fields) * turbGrid * turbGrid * turbGrid * turbulence.Channels * 8)

	if !p.cfg.trace {
		res.setTiming("setup_s", "s", p.setups.median(), len(p.setups))
		res.setTiming("turb_batch_p50_ms", "ms", plain.median(), len(plain))
		res.setTiming("turb_batch_p99_ms", "ms", plainCPU.quantile(0.99), len(plainCPU))
	} else {
		p.gs.report(res, len(plain)+len(traced))
		n := len(traced)
		perOp(res, layer, n, map[string]string{
			"pages.logical_reads":  "count",
			"pages.physical_reads": "count",
			"pages.evictions":      "count",
			"blob.chunk_reads":     "count",
			"blob.directory_reads": "count",
			"blob.bytes_read":      "B",
		})
		res.set("pages.hit_ratio", "ratio", hitRatio(layer))
		// bytes_read counts logical blob bytes; compressed_bytes_read the
		// stored bytes behind the compressed share of them. A store
		// whose chunks all fell back to the raw format reads as 1.
		ratio := 1.0
		if c := layer.Get("blob.compressed_bytes_read"); c > 0 {
			ratio = float64(layer.Get("blob.bytes_read")) / float64(c)
		}
		res.set("blob.compression_ratio", "ratio", ratio)
		reads := tr.durations("blob.read_runs")
		res.setTiming("blob.read_runs_ns", "ns", reads.median(), len(reads))
		// Each probe's hot batch minus its hot reads; the median of those.
		hot := tr.durations("turb.batch_hot")
		hotReads := tr.durations("turb.stencil_reads_hot")
		var interpSelf samples
		for i := range hot {
			interpSelf = append(interpSelf, (hot[i]-hotReads[i])/turbHotPoints)
		}
		res.setTiming("turbulence.interp_self_ns_per_point", "ns", interpSelf.median(), len(interpSelf))
		res.set("trace.overhead_pct", "%", 100*(traced.median()-plain.median())/plain.median())
		res.set("client.offcpu_pct", "%", offCPUPct(plain, plainCPU))
	}

	if err := turbVerify(p.st, p.fields, p.batches, res); err != nil {
		return nil, err
	}
	return res, nil
}

// loadPool reads every page of the database into its pool, so that a
// pool larger than the data serves every later read as a hit.
func loadPool(db *sqlarray.Database) error {
	pool := db.Pool()
	for id := 0; id < pool.Disk().NumPages(); id++ {
		f, err := pool.Fetch(pages.PageID(id))
		if err != nil {
			return fmt.Errorf("load pool: %w", err)
		}
		pool.Unpin(f, false)
	}
	return nil
}

// turbProbe times, from outside the service, the blob reads that
// VelocityBatch makes for each point of b: a B+tree lookup of the
// sub-cube's row ("turb.stencil_read") around a pinned read and decode
// of the np³×3 stencil sub-array ("blob.read_runs"), in the same
// steady pool state as the measured batches. The interpolation's own
// cost is then taken on a hot pool, where reads are cheap and the
// subtraction is not lost in their noise: the first turbHotPoints
// points are interpolated once to load their pages, then timed again
// ("turb.batch_hot"), and their reads, subarray plans included as the
// service makes them, are timed again in one span as well
// ("turb.stencil_reads_hot"), so that both sides pay the same span
// overhead.
func turbProbe(db *sqlarray.Database, st *turbulence.Store, b *turbBatch, tr *tracer) error {
	if err := turbReads(db, st, b.step, b.pts, tr, "turb.stencil_read", "blob.read_runs"); err != nil {
		return err
	}
	hot := b.pts[:turbHotPoints]
	if _, err := st.VelocityBatch(b.step, hot, turbScheme, turbulence.PartialRead); err != nil {
		return err
	}
	tr.begin("turb.batch_hot")
	_, err := st.VelocityBatch(b.step, hot, turbScheme, turbulence.PartialRead)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("turb.stencil_reads_hot")
	err = turbReads(db, st, b.step, hot, nil, "", "")
	tr.end()
	return err
}

// turbReads reads every point's stencil runs the way the service does:
// pinned chunk segments decoded straight into a fresh float64 slice. It mirrors the
// store's layout: clustered key step<<40 | z-order code of the
// sub-cube, block side cube+2·ghost, channels last.
func turbReads(db *sqlarray.Database, st *turbulence.Store, step int, pts [][3]float64, tr *tracer, outer, inner string) error {
	np := turbScheme.Points()
	m := st.CubeSide() + 2*st.Ghost()
	h := core.Header{Class: core.Max, Elem: core.Float64, Dims: []int{m, m, m, turbulence.Channels}}
	hdr := h.EncodedSize()
	for _, p := range pts {
		var c, s [3]int
		for d := 0; d < 3; d++ {
			g := math.Mod(p[d], turbGrid)
			c[d] = int(g) / st.CubeSide()
			local := g - float64(c[d]*st.CubeSide()) + float64(st.Ghost())
			s[d] = int(math.Floor(local)) - (np/2 - 1)
		}
		code, err := sfc.Encode3D(uint32(c[0]), uint32(c[1]), uint32(c[2]))
		if err != nil {
			return err
		}
		plan, err := core.SubarrayPlan(h, []int{s[0], s[1], s[2], 0}, []int{np, np, np, 3})
		if err != nil {
			return err
		}
		runs := make([]blob.Run, len(plan))
		for i, r := range plan {
			runs[i] = blob.Run{SrcOff: r.SrcOff + hdr, DstOff: r.DstOff, Len: r.Len}
		}
		tr.begin(outer)
		row, err := st.Table().Get(int64(uint64(step)<<40 | code))
		if err == nil {
			var ref blob.Ref
			if ref, err = blob.DecodeRef(row[1].B); err == nil {
				tr.begin(inner)
				err = readDecoded(db, ref, runs, make([]float64, np*np*np*3))
				tr.end()
			}
		}
		tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// readDecoded pins the chunks under runs and decodes their float64s
// into dst.
func readDecoded(db *sqlarray.Database, ref blob.Ref, runs []blob.Run, dst []float64) error {
	rv, err := db.Blobs().ReadRunsPinned(ref, runs)
	if err != nil {
		return err
	}
	defer rv.Release()
	for i := range runs {
		rv.VisitRun(i, func(dstOff int, seg []byte) {
			for w := 0; w+8 <= len(seg); w += 8 {
				dst[(dstOff+w)/8] = math.Float64frombits(binary.LittleEndian.Uint64(seg[w:]))
			}
		})
	}
	return nil
}

// turbVerify checks every measured batch against the 8-point kernel
// evaluated on the in-memory field, and every turbWholeEvery-th batch
// against the service's WholeBlob path. A wrong batch is a failed
// operation.
func turbVerify(st *turbulence.Store, fields []*turbulence.Field, batches []*turbBatch, res *result) error {
	grids := make([][3]*interp.Grid3D, len(fields))
	for s, f := range fields {
		for ch, data := range [3][]float64{f.U, f.V, f.W} {
			g, err := interp.NewGrid3D(f.N, data)
			if err != nil {
				return err
			}
			grids[s][ch] = g
		}
	}
	for bi, b := range batches {
		ok := true
		for i, p := range b.pts {
			for ch := 0; ch < 3; ch++ {
				want := grids[b.step][ch].Sample(p[0], p[1], p[2], turbScheme)
				if !closeTo(b.out[i][ch], want) {
					ok = false
				}
			}
		}
		if ok && bi%turbWholeEvery == 0 {
			whole, err := st.VelocityBatch(b.step, b.pts, turbScheme, turbulence.WholeBlob)
			if err != nil {
				return err
			}
			for i := range whole {
				for ch := 0; ch < 3; ch++ {
					if !closeTo(b.out[i][ch], whole[i][ch]) {
						ok = false
					}
				}
			}
		}
		if !ok {
			res.fail("batch %d (step %d) differs from the reference interpolation", bi, b.step)
		}
	}
	return nil
}
