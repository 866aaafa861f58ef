package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"tianhe/internal/telemetry"
)

// The determinism goldens: every experiment sweep must produce byte-identical
// rows, metric dumps, and trace JSON at -par 1 (points run inline) and
// -par 8 (the worker pool). These run under -race in scripts/check.sh, so
// they double as the race gate for the sweep plumbing.

// renderSeries encodes series as ledger rows, one per point.
func renderSeries(ss ...*Series) []byte {
	var rows []Row
	for _, s := range ss {
		for _, p := range s.Points {
			rows = append(rows, Row{ID: fmt.Sprintf("%s.%g", s.Name, p.X), Measured: p.Y})
		}
	}
	var buf bytes.Buffer
	if err := WriteLedger(&buf, DefaultSeed, 1, rows); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// telBytes renders a bundle's full observable state: the metric dump and the
// trace-event JSON (which pins event order and track registration order).
func telBytes(t *testing.T, tel *telemetry.Telemetry) []byte {
	t.Helper()
	var buf bytes.Buffer
	tel.Metrics.WriteText(&buf)
	if err := tel.Trace.WriteJSON(&buf); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	return buf.Bytes()
}

func diffBytes(t *testing.T, what string, serial, parallel []byte) {
	t.Helper()
	if bytes.Equal(serial, parallel) {
		return
	}
	i := 0
	for i < len(serial) && i < len(parallel) && serial[i] == parallel[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		hi := i + 80
		if hi > len(b) {
			hi = len(b)
		}
		return b[lo:hi]
	}
	t.Fatalf("%s differs between -par 1 and -par 8 at byte %d:\nserial:   ...%q...\nparallel: ...%q...",
		what, i, clip(serial), clip(parallel))
}

func TestParDeterminismFig8(t *testing.T) {
	sizes := []int{2048, 6144}
	run := func(par int) ([]byte, []byte) {
		tel := telemetry.New()
		ss := Fig8Instrumented(DefaultSeed, sizes, tel, par)
		return renderSeries(ss...), telBytes(t, tel)
	}
	tab1, tel1 := run(1)
	tab8, tel8 := run(8)
	diffBytes(t, "Fig8 table", tab1, tab8)
	diffBytes(t, "Fig8 telemetry", tel1, tel8)
}

func TestParDeterminismFig9(t *testing.T) {
	sizes := []int{9728, 24320}
	run := func(par int) ([]byte, []byte) {
		tel := telemetry.New()
		ss := Fig9Instrumented(DefaultSeed, sizes, tel, par)
		return renderSeries(ss...), telBytes(t, tel)
	}
	tab1, tel1 := run(1)
	tab8, tel8 := run(8)
	diffBytes(t, "Fig9 table", tab1, tab8)
	diffBytes(t, "Fig9 telemetry", tel1, tel8)
}

func TestParDeterminismFig11(t *testing.T) {
	run := func(par int) []byte {
		ours, qilin := Fig11(DefaultSeed, quickFig11, par)
		return renderSeries(ours, qilin)
	}
	diffBytes(t, "Fig11 table", run(1), run(8))
}

func TestParDeterminismFig12(t *testing.T) {
	run := func(par int) []byte {
		tflops, _ := Fig12(DefaultSeed, []int{1, 4}, par)
		return renderSeries(tflops)
	}
	diffBytes(t, "Fig12 table", run(1), run(8))
}

func TestParDeterminismAblations(t *testing.T) {
	run := func(par int) []byte {
		return renderSeries(AblationBuckets([]int{8, 26, 64}, DefaultSeed, par), AblationStaging(DefaultSeed, par))
	}
	diffBytes(t, "ablation tables", run(1), run(8))
}

func TestParDeterminismFaultSweep(t *testing.T) {
	run := func(par int) ([]byte, []byte) {
		tel := telemetry.New()
		cells, err := FaultSweep("healthy", DefaultSeed, 2048, 6, tel, par)
		if err != nil {
			t.Fatalf("FaultSweep: %v", err)
		}
		var buf bytes.Buffer
		for _, c := range cells {
			fmt.Fprintf(&buf, "%+v\n", c)
		}
		return buf.Bytes(), telBytes(t, tel)
	}
	cells1, tel1 := run(1)
	cells8, tel8 := run(8)
	diffBytes(t, "FaultSweep cells", cells1, cells8)
	diffBytes(t, "FaultSweep telemetry", tel1, tel8)
}
