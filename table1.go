package sqlarray

import (
	"fmt"
	"runtime"
	"time"

	"sqlarray/internal/core"
	"sqlarray/internal/engine"
)

// This file is the experiment harness for the paper's evaluation
// (§6, Table 1): two 5-dimensional-vector tables — Tscalar with the
// components in five FLOAT columns, Tvector with them in one short
// array blob — scanned by five queries that isolate the UDF-boundary
// cost. perfbench/README.md ("Table 1: the paper against this engine")
// records paper-vs-measured numbers.

// Table1Config sizes the experiment. The paper used 357 M rows on an
// 8-core server; the defaults here are laptop-scale with the same
// shape.
type Table1Config struct {
	// Rows in each table (paper: 357e6).
	Rows int
	// PoolPages sizes the buffer pool; keep it smaller than the tables
	// to exercise real eviction, or large enough to hold them to
	// isolate CPU (the modeled I/O column uses counted bytes either
	// way).
	PoolPages int
	// Model converts counted bytes into the paper's I/O time column.
	Model IOModel
}

// DefaultTable1Config returns a configuration that runs in seconds.
func DefaultTable1Config() Table1Config {
	return Table1Config{Rows: 200_000, PoolPages: 32768, Model: DefaultIOModel}
}

// Table1Queries are the five test queries, verbatim from §6.3.
var Table1Queries = [5]string{
	"SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)",
	"SELECT COUNT(*) FROM Tvector WITH (NOLOCK)",
	"SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)",
	"SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)",
	"SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector WITH (NOLOCK)",
}

// QueryMeasurement is one Table 1 row: measured CPU and counted bytes,
// with the paper's three columns (execution time, CPU load, I/O rate)
// reconstructed as time = max(CPU, modeled I/O).
type QueryMeasurement struct {
	Index     int // 1-based query number
	Query     string
	Value     float64       // the query's scalar result
	Wall      time.Duration // raw wall-clock on this machine
	CPU       time.Duration // process CPU consumed by the query
	Bytes     uint64        // bytes scanned (buffer pool)
	UDFCalls  uint64        // boundary crossings
	Time      time.Duration // reconstructed execution time
	CPULoad   float64       // percent, CPU/Time
	IOMBps    float64       // Bytes/Time in MB/s
	RowsPerNs float64       // throughput for sanity checks
}

// SetupTable1 populates Tscalar and Tvector with identical data:
// clustered BIGINT id plus a 5-vector of float64, stored as five scalar
// columns versus one short-array blob (24-byte header + 40 bytes of
// payload, §6.2).
func SetupTable1(db *Database, rows int) error {
	scalarSchema, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v1", Type: engine.ColFloat64},
		engine.Column{Name: "v2", Type: engine.ColFloat64},
		engine.Column{Name: "v3", Type: engine.ColFloat64},
		engine.Column{Name: "v4", Type: engine.ColFloat64},
		engine.Column{Name: "v5", Type: engine.ColFloat64},
	)
	if err != nil {
		return err
	}
	vectorSchema, err := engine.NewSchema(
		engine.Column{Name: "id", Type: engine.ColInt64},
		engine.Column{Name: "v", Type: engine.ColVarBinary},
	)
	if err != nil {
		return err
	}
	ts, err := db.CreateTable("Tscalar", scalarSchema)
	if err != nil {
		return err
	}
	tv, err := db.CreateTable("Tvector", vectorSchema)
	if err != nil {
		return err
	}
	// dbo.EmptyFunction mirrors the paper's Query 5 probe.
	db.Funcs().Register("dbo.EmptyFunction", 2, func(args []engine.Value) (engine.Value, error) {
		return engine.FloatValue(0), nil
	})
	vec, err := core.New(core.Short, core.Float64, 5)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		// A cheap deterministic pseudo-vector; Query 3/4 sums make the
		// two tables comparable.
		x := float64(i%1000) / 1000
		comps := [5]float64{x, 2 * x, 3 * x, 4 * x, 5 * x}
		err := ts.Insert([]engine.Value{
			engine.IntValue(int64(i)),
			engine.FloatValue(comps[0]), engine.FloatValue(comps[1]), engine.FloatValue(comps[2]),
			engine.FloatValue(comps[3]), engine.FloatValue(comps[4]),
		})
		if err != nil {
			return err
		}
		for k, c := range comps {
			vec.SetFloatAt(k, c)
		}
		if err := tv.Insert([]engine.Value{engine.IntValue(int64(i)), engine.BinaryValue(vec.Bytes())}); err != nil {
			return err
		}
	}
	return db.Pool().FlushAll()
}

// RunTable1 executes the five queries cold (cache dropped before each,
// as §6.3 does) and returns their measurements.
func RunTable1(db *Database, cfg Table1Config) ([]QueryMeasurement, error) {
	out := make([]QueryMeasurement, 0, len(Table1Queries))
	for qi, q := range Table1Queries {
		m, err := MeasureQuery(db, q, cfg.Model)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", qi+1, err)
		}
		m.Index = qi + 1
		out = append(out, m)
	}
	return out, nil
}

// MeasureQuery runs one query with a cold cache and reconstructs the
// paper's columns.
func MeasureQuery(db *Database, query string, model IOModel) (QueryMeasurement, error) {
	if err := db.DropCleanBuffers(); err != nil {
		return QueryMeasurement{}, err
	}
	// Settle the garbage collector so setup/previous-query debt is not
	// billed to this measurement's CPU time.
	runtime.GC()
	db.Pool().ResetStats()
	db.Funcs().ResetStats()
	cpu0 := processCPUTime()
	wall0 := time.Now()
	res, err := db.Query(query)
	if err != nil {
		return QueryMeasurement{}, err
	}
	wall := time.Since(wall0)
	cpu := processCPUTime() - cpu0
	if cpu <= 0 {
		cpu = wall // rusage granularity fallback for sub-tick queries
	}
	v, err := res.Scalar()
	if err != nil {
		return QueryMeasurement{}, err
	}
	f, _ := v.AsFloat()
	st := db.Pool().Stats()
	fs := db.Funcs().Stats()

	ioTime := model.SeqReadTime(st.BytesRead)
	t := cpu
	if ioTime > t {
		t = ioTime
	}
	m := QueryMeasurement{
		Query:    query,
		Value:    f,
		Wall:     wall,
		CPU:      cpu,
		Bytes:    st.BytesRead,
		UDFCalls: fs.Calls,
		Time:     t,
	}
	if t > 0 {
		m.CPULoad = 100 * float64(cpu) / float64(t)
		m.IOMBps = float64(st.BytesRead) / 1e6 / t.Seconds()
	}
	return m, nil
}

// StorageComparison is the §6.2 size claim: the vector table is bigger
// because of the per-row array headers ("this second table had 24 bytes
// overhead per row ... which made the whole table 43 % bigger").
type StorageComparison struct {
	ScalarStats engine.TableStats
	VectorStats engine.TableStats
	// PageRatio is vector leaf pages / scalar leaf pages.
	PageRatio float64
	// ByteRatio is vector row bytes / scalar row bytes.
	ByteRatio float64
}

// CompareTable1Storage measures both tables' footprints.
func CompareTable1Storage(db *Database) (StorageComparison, error) {
	ts, err := db.Table("Tscalar")
	if err != nil {
		return StorageComparison{}, err
	}
	tv, err := db.Table("Tvector")
	if err != nil {
		return StorageComparison{}, err
	}
	ss, err := ts.Stats()
	if err != nil {
		return StorageComparison{}, err
	}
	vs, err := tv.Stats()
	if err != nil {
		return StorageComparison{}, err
	}
	out := StorageComparison{ScalarStats: ss, VectorStats: vs}
	if ss.LeafPages > 0 {
		out.PageRatio = float64(vs.LeafPages) / float64(ss.LeafPages)
	}
	if ss.RowBytes > 0 {
		out.ByteRatio = float64(vs.RowBytes) / float64(ss.RowBytes)
	}
	return out, nil
}

// UDFCostBreakdown carries the §7.1 derived quantities.
type UDFCostBreakdown struct {
	Rows int
	// PerCallCost is (CPU_Q4 − CPU_Q3)/rows: the marginal cost of one
	// boundary crossing plus item extraction (paper: ≈2 µs/call).
	PerCallCost time.Duration
	// PerEmptyCallCost is (CPU_Q5 − CPU_Q3)/rows: the pure call cost.
	PerEmptyCallCost time.Duration
	// EmptyCallShare is (CPU_Q5 − CPU_Q3)/CPU_Q5: the fraction of
	// query-5 CPU attributable to the boundary alone (paper: ≥38 %).
	EmptyCallShare float64
	// ExtractionIncrement is (CPU_Q4 − CPU_Q5)/CPU_Q5: added cost of
	// actually extracting the item (paper: +22 %).
	ExtractionIncrement float64
}

// DeriveUDFCost computes the §7.1 numbers from Table 1 measurements.
func DeriveUDFCost(ms []QueryMeasurement, rows int) (UDFCostBreakdown, error) {
	if len(ms) != 5 {
		return UDFCostBreakdown{}, fmt.Errorf("sqlarray: want 5 measurements, got %d", len(ms))
	}
	cpu3, cpu4, cpu5 := ms[2].CPU, ms[3].CPU, ms[4].CPU
	out := UDFCostBreakdown{Rows: rows}
	if rows > 0 {
		out.PerCallCost = (cpu4 - cpu3) / time.Duration(rows)
		out.PerEmptyCallCost = (cpu5 - cpu3) / time.Duration(rows)
	}
	if cpu5 > 0 {
		out.EmptyCallShare = float64(cpu5-cpu3) / float64(cpu5)
		out.ExtractionIncrement = float64(cpu4-cpu5) / float64(cpu5)
	}
	return out, nil
}
