package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"tianhe/internal/telemetry"
)

// paperTel is the bundle the par-1 ledger records into; read it only after
// paperLedger returned.
var paperTel = telemetry.New()

var paperLedgerOnce = sync.OnceValues(func() ([]Row, error) { return Ledger(DefaultSeed, 1, paperTel) })

// paperLedger returns the traced par-1 ledger, computed once for every test
// reading it. TestPaperLedger holds its rows to the committed, untraced
// file, so it also shows that tracing moves no row.
func paperLedger(t *testing.T) []Row {
	t.Helper()
	rows, err := paperLedgerOnce()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func ledgerBytes(t *testing.T, seed uint64, par int, rows []Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteLedger(&buf, seed, par, rows); err != nil {
		t.Fatalf("WriteLedger: %v", err)
	}
	return buf.Bytes()
}

// TestPaperLedger holds every paper claim to its bool, every banded row to
// its band, every numeric paper value to a band or a reason, and every row
// to the committed BENCH_paper.json byte for byte.
func TestPaperLedger(t *testing.T) {
	t.Parallel()
	rows := paperLedger(t)
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		if seen[r.ID] {
			t.Errorf("duplicate row id %s", r.ID)
		}
		seen[r.ID] = true
		if claim, ok := r.Paper.(bool); ok && r.Measured != claim {
			t.Errorf("%s: %q is %v, the paper says %v", r.ID, r.Quantity, r.Measured, claim)
		}
		if rowKind(r) == "paper" && r.Band == nil && r.Reason == "" {
			t.Errorf("%s: the paper's %v has neither a band nor a reason", r.ID, r.Paper)
		}
		if b := r.Band; b != nil {
			m := r.Measured.(float64)
			if (b.Lo != nil && m < *b.Lo) || (b.Hi != nil && m > *b.Hi) {
				t.Errorf("%s: %q = %v %s outside its band (paper %v)", r.ID, r.Quantity, m, r.Unit, r.Paper)
			}
		}
	}

	committed, err := os.ReadFile("../../BENCH_paper.json")
	if err != nil {
		t.Fatalf("reading the committed ledger: %v", err)
	}
	var head struct {
		Seed uint64
		Par  int
	}
	if err := json.Unmarshal(committed, &head); err != nil {
		t.Fatalf("BENCH_paper.json: %v", err)
	}
	if head.Seed != DefaultSeed {
		t.Fatalf("BENCH_paper.json was written with seed %d, want %d", head.Seed, DefaultSeed)
	}
	// The rows are par-invariant (TestParDeterminismLedger), so the par-1
	// rows re-encode under the committed header's par.
	if got := ledgerBytes(t, head.Seed, head.Par, rows); !bytes.Equal(got, committed) {
		t.Errorf("BENCH_paper.json differs from the ledger in rows %s; "+
			"regenerate it with `go run ./cmd/figures -par 8 -o BENCH_paper.json` and review the diff",
			strings.Join(changedRows(committed, got), ", "))
	}
}

// changedRows names the rows whose encoded line differs between two
// ledger files, or that only one of them has, in the order of b then a.
func changedRows(a, b []byte) []string {
	lines := func(file []byte) (ids []string, line map[string]string) {
		line = make(map[string]string)
		for _, l := range strings.Split(string(file), "\n") {
			var r struct{ ID string }
			if json.Unmarshal([]byte(strings.TrimSuffix(strings.TrimSpace(l), ",")), &r) == nil && r.ID != "" {
				ids = append(ids, r.ID)
				line[r.ID] = strings.TrimSuffix(l, ",")
			}
		}
		return ids, line
	}
	aIDs, aLine := lines(a)
	bIDs, bLine := lines(b)
	var out []string
	for _, id := range append(bIDs, aIDs...) {
		if aLine[id] != bLine[id] {
			out = append(out, id)
			aLine[id], bLine[id] = "", "" // name each id once
		}
	}
	if len(out) == 0 {
		out = append(out, "(none: the header differs)")
	}
	return out
}

// TestParDeterminismLedger compares the traced par-1 ledger with the traced
// par-8 ledger: equal rows mean the worker count moves no row, and equal
// metric dumps and trace JSON mean it moves no recorded number or event.
func TestParDeterminismLedger(t *testing.T) {
	t.Parallel()
	tel := telemetry.New()
	par8, err := Ledger(DefaultSeed, 8, tel)
	if err != nil {
		t.Fatal(err)
	}
	diffBytes(t, "ledger", ledgerBytes(t, DefaultSeed, 1, paperLedger(t)), ledgerBytes(t, DefaultSeed, 1, par8))
	diffBytes(t, "ledger telemetry", telBytes(t, paperTel), telBytes(t, tel))
	// The fault rows' runs record into tel too: the lost-gpu outage as a
	// span on the fault track, and the adaptive runtime's recovery.
	var lossSpan, fallback, reinit bool
	for _, e := range tel.Trace.Events() {
		lossSpan = lossSpan || e.Track == "fault" && e.Name == "gpu.loss"
		fallback = fallback || e.Name == "gpu.fallback"
		reinit = reinit || e.Name == "gpu.reinit"
	}
	if !lossSpan || !fallback || !reinit {
		t.Errorf("traced ledger missing fault events: loss=%v fallback=%v reinit=%v", lossSpan, fallback, reinit)
	}
}
