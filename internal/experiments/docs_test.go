package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the generated ledger blocks of EXPERIMENTS.md and README.md from BENCH_paper.json")

// The result tables of EXPERIMENTS.md and README.md are generated from the
// committed ledger, so a number is written in BENCH_paper.json and nowhere
// else. A generated block is
//
//	<!-- ledger: SPEC -->
//	...
//	<!-- /ledger -->
//
// and holds exactly the table SPEC renders:
//
//   - "scorecard": one line per figure with paper rows — its bands held,
//     its worst |dev_pct| and row, its claims held;
//   - "grid PATTERN": PATTERN is an id with two '*', the first matching a
//     series and the second an x (fig8.*.n* matches fig8.cpu.n2048); the
//     measured values pivot into a table whose longer axis runs down;
//   - otherwise a list of ids, a trailing '*' making one a prefix:
//     row | quantity | paper | measured | dev % | band.

// docBlock matches one generated block: its spec and its body.
var docBlock = regexp.MustCompile(`(?s)<!-- ledger: (.*?) -->\n(.*?)<!-- /ledger -->`)

// rowKind derives what a row is from its Paper value: "paper" for a number
// the paper reports, "claim" for a bool it asserts, "anchor" for a
// regression pin the paper has no value for.
func rowKind(r Row) string {
	switch r.Paper.(type) {
	case float64:
		return "paper"
	case bool:
		return "claim"
	}
	return "anchor"
}

// cell is one table cell and the id of the row it shows, "" for a label.
type cell struct{ text, id string }

// table is a rendered block, header first.
type table [][]cell

func (t table) markdown() string {
	var b strings.Builder
	for i, line := range t {
		b.WriteString("|")
		for _, c := range line {
			b.WriteString(" " + escape(c.text) + " |")
		}
		b.WriteString("\n")
		if i == 0 {
			b.WriteString(strings.Repeat("| --- ", len(line)) + "|\n")
		}
	}
	return b.String()
}

// diffIDs names what differs between a block's committed body and its
// rendering: the row id of each differing cell, else the line.
func (t table) diffIDs(body string) []string {
	want := strings.Split(t.markdown(), "\n")
	got := strings.Split(body, "\n")
	var ids []string
	for i := range max(len(want), len(got)) {
		if i < len(want) && i < len(got) && want[i] == got[i] {
			continue
		}
		n := len(ids)
		var line []cell // markdown line 0 is the header, line 1 the rule
		switch {
		case i == 0:
			line = t[0]
		case i >= 2 && i-1 < len(t):
			line = t[i-1]
		}
		if i < len(got) {
			gotCells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(got[i], "| "), " |"), " | ")
			for j, c := range line {
				if c.id != "" && (j >= len(gotCells) || gotCells[j] != escape(c.text)) {
					ids = append(ids, c.id)
				}
			}
		}
		if len(ids) == n {
			ids = append(ids, fmt.Sprintf("line %d", i+1))
		}
	}
	return ids
}

// render renders one block spec over the ledger rows.
func render(spec string, rows []Row) (table, error) {
	f := strings.Fields(spec)
	switch {
	case len(f) == 1 && f[0] == "scorecard":
		return renderScorecard(rows), nil
	case len(f) == 2 && f[0] == "grid":
		return renderGrid(f[1], rows)
	case len(f) > 0:
		return renderList(f, rows)
	}
	return nil, fmt.Errorf("empty spec")
}

func renderList(tokens []string, rows []Row) (table, error) {
	t := table{{{text: "row"}, {text: "quantity"}, {text: "paper"}, {text: "measured"}, {text: "dev %"}, {text: "band"}}}
	for _, tok := range tokens {
		prefix, isPrefix := strings.CutSuffix(tok, "*")
		n := len(t)
		for _, r := range rows {
			if r.ID != tok && !(isPrefix && strings.HasPrefix(r.ID, prefix)) {
				continue
			}
			c := func(text string) cell { return cell{text, r.ID} }
			dev := ""
			if r.DevPct != nil {
				dev = fmt.Sprintf("%+.1f", *r.DevPct)
			}
			var band []string
			if b := r.Band; b != nil {
				switch {
				case b.Lo != nil && b.Hi != nil:
					band = append(band, "["+num(*b.Lo)+", "+num(*b.Hi)+"]")
				case b.Lo != nil:
					band = append(band, "≥ "+num(*b.Lo))
				case b.Hi != nil:
					band = append(band, "≤ "+num(*b.Hi))
				}
			}
			if r.Reason != "" {
				head, _, _ := strings.Cut(r.Reason, ":")
				band = append(band, head)
			}
			t = append(t, []cell{c("`" + r.ID + "`"), c(withUnit(r.Quantity, r.Unit)), c(value(r.Paper)), c(value(r.Measured)), c(dev), c(strings.Join(band, "; "))})
		}
		if len(t) == n {
			return nil, fmt.Errorf("%s matches no row", tok)
		}
	}
	return t, nil
}

func renderGrid(pattern string, rows []Row) (table, error) {
	parts := strings.Split(pattern, "*")
	if len(parts) != 3 {
		return nil, fmt.Errorf("grid pattern %s needs two '*'", pattern)
	}
	var series, xs []string
	cells := map[[2]string]Row{}
	for _, r := range rows {
		mid, okPrefix := strings.CutPrefix(r.ID, parts[0])
		mid, okSuffix := strings.CutSuffix(mid, parts[2])
		s, x, okSep := strings.Cut(mid, parts[1])
		if !okPrefix || !okSuffix || !okSep || s == "" || x == "" || strings.Contains(s+x, ".") {
			continue
		}
		if !slices.Contains(series, s) {
			series = append(series, s)
		}
		if !slices.Contains(xs, x) {
			xs = append(xs, x)
		}
		cells[[2]string{s, x}] = r
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("grid %s matches no row", pattern)
	}
	down, across := xs, series
	at := func(d, a string) (Row, bool) { r, ok := cells[[2]string{a, d}]; return r, ok }
	if len(series) > len(xs) {
		down, across = series, xs
		at = func(d, a string) (Row, bool) { r, ok := cells[[2]string{d, a}]; return r, ok }
	}
	// A unit shared by every cell goes in the corner, else one shared down
	// each column goes in its header, else one shared along each line goes
	// in its label.
	unitOf := func(ds, as []string) string {
		u := ""
		for _, d := range ds {
			for _, a := range as {
				if r, ok := at(d, a); ok {
					if u != "" && u != r.Unit {
						return ""
					}
					u = r.Unit
				}
			}
		}
		return u
	}
	all := unitOf(down, across)
	perColumn := all == ""
	for _, a := range across {
		perColumn = perColumn && unitOf(down, []string{a}) != ""
	}
	perLine := all == "" && !perColumn
	for _, d := range down {
		perLine = perLine && unitOf([]string{d}, across) != ""
	}
	label := func(name string, use bool, ds, as []string) cell {
		if use {
			return cell{text: withUnit(name, unitOf(ds, as))}
		}
		return cell{text: name}
	}
	head := []cell{label("`"+pattern+"`", all != "", down, across)}
	for _, a := range across {
		head = append(head, label(a, perColumn, down, []string{a}))
	}
	t := table{head}
	for _, d := range down {
		line := []cell{label(d, perLine, []string{d}, across)}
		for _, a := range across {
			if r, ok := at(d, a); ok {
				line = append(line, cell{value(r.Measured), r.ID})
			} else {
				line = append(line, cell{text: "—"})
			}
		}
		t = append(t, line)
	}
	return t, nil
}

func renderScorecard(rows []Row) table {
	type card struct {
		figure                       string
		banded, inBand, claims, held int
		worst                        float64
		worstID                      string
	}
	var cards []*card
	byFigure := map[string]*card{}
	for _, r := range rows {
		if rowKind(r) == "anchor" {
			continue
		}
		c := byFigure[r.Figure]
		if c == nil {
			c = &card{figure: r.Figure}
			byFigure[r.Figure] = c
			cards = append(cards, c)
		}
		if claim, ok := r.Paper.(bool); ok {
			c.claims++
			if r.Measured == claim {
				c.held++
			}
		}
		if b := r.Band; b != nil {
			c.banded++
			m := r.Measured.(float64)
			if (b.Lo == nil || m >= *b.Lo) && (b.Hi == nil || m <= *b.Hi) {
				c.inBand++
			}
		}
		if r.DevPct != nil && (c.worstID == "" || math.Abs(*r.DevPct) > c.worst) {
			c.worst, c.worstID = math.Abs(*r.DevPct), r.ID
		}
	}
	t := table{{{text: "figure"}, {text: "bands held"}, {text: "worst |dev %|"}, {text: "claims held"}}}
	for _, c := range cards {
		worst := ""
		if c.worstID != "" {
			worst = fmt.Sprintf("%.1f (`%s`)", c.worst, c.worstID)
		}
		t = append(t, []cell{
			{text: c.figure},
			{fmt.Sprintf("%d/%d", c.inBand, c.banded), "bands of figure " + c.figure},
			{worst, c.worstID},
			{fmt.Sprintf("%d/%d", c.held, c.claims), "claims of figure " + c.figure},
		})
	}
	return t
}

// num prints a number to four significant digits, or to the unit when it
// has more integer digits than that, without trailing zeros; below 1e-4 in
// magnitude it switches to an exponent.
func num(v float64) string {
	if v == 0 {
		return "0"
	}
	if math.Abs(v) < 1e-4 {
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	digits := max(3-int(math.Floor(math.Log10(math.Abs(v)))), 0)
	s := strconv.FormatFloat(v, 'f', digits, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}

// value prints a Paper or Measured value; a missing one prints empty.
func value(v any) string {
	switch v := v.(type) {
	case nil:
		return ""
	case float64:
		return num(v)
	case bool:
		return strconv.FormatBool(v)
	}
	b, _ := json.Marshal(v)
	return string(b)
}

func withUnit(s, unit string) string {
	if unit == "" || unit == "bool" {
		return s
	}
	return s + " (" + unit + ")"
}

// escape keeps a cell's '|' from splitting it.
func escape(s string) string { return strings.ReplaceAll(s, "|", `\|`) }

// committedRows reads the rows of the committed BENCH_paper.json, which
// TestPaperLedger ties to the code.
func committedRows(t *testing.T) []Row {
	t.Helper()
	b, err := os.ReadFile("../../BENCH_paper.json")
	if err != nil {
		t.Fatalf("reading the committed ledger: %v", err)
	}
	var f struct{ Rows []Row }
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCH_paper.json: %v", err)
	}
	return f.Rows
}

// syncBlocks renders every block of doc over rows and returns the document
// with each block's body replaced by its rendering, one line per block
// whose committed body differs, and one per spec that does not render.
func syncBlocks(name, doc string, rows []Row) (synced string, diffs, errs []string) {
	var out strings.Builder
	last := 0
	for _, m := range docBlock.FindAllStringSubmatchIndex(doc, -1) {
		spec, body := doc[m[2]:m[3]], doc[m[4]:m[5]]
		at := fmt.Sprintf("%s:%d: block %q", name, strings.Count(doc[:m[0]], "\n")+1, spec)
		t, err := render(spec, rows)
		if err != nil {
			errs = append(errs, at+": "+err.Error())
			continue
		}
		if want := t.markdown(); body != want {
			diffs = append(diffs, at+" differs from BENCH_paper.json in "+strings.Join(t.diffIDs(body), ", "))
			out.WriteString(doc[last:m[4]] + want)
			last = m[5]
		}
	}
	out.WriteString(doc[last:])
	return out.String(), diffs, errs
}

// TestDocsLedgerBlocks holds every generated block of EXPERIMENTS.md and
// README.md byte-equal to what its spec renders from BENCH_paper.json;
// -update rewrites the blocks instead.
func TestDocsLedgerBlocks(t *testing.T) {
	rows := committedRows(t)
	for _, name := range []string{"EXPERIMENTS.md", "README.md"} {
		path := "../../" + name
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !docBlock.Match(doc) {
			t.Errorf("%s has no generated ledger block", name)
		}
		synced, diffs, errs := syncBlocks(name, string(doc), rows)
		for _, e := range errs {
			t.Error(e)
		}
		if !*update {
			for _, d := range diffs {
				t.Errorf("%s; regenerate with `go test ./internal/experiments -run TestDocsLedgerBlocks -update`", d)
			}
		} else if len(diffs) > 0 {
			if err := os.WriteFile(path, []byte(synced), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRenderBlocks(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	rows := []Row{
		{ID: "f1.a.n1", Figure: "1", Quantity: "a at 1", Unit: "GFLOPS", Paper: 10.0, Measured: 11.0, DevPct: f(10), Band: band(9, 12)},
		{ID: "f1.a.n2", Figure: "1", Quantity: "a at 2", Unit: "GFLOPS", Measured: 20.5},
		{ID: "f1.b.n1", Figure: "1", Quantity: "b at 1", Unit: "GFLOPS", Measured: 1234.56},
		{ID: "f1.gain", Figure: "1", Quantity: "gain", Unit: "ratio", Paper: 0.2, Measured: 0.15, DevPct: f(-25), Reason: "known deviation 9: the model is coarse"},
		{ID: "f1.holds", Figure: "1", Quantity: "a beats b", Unit: "bool", Paper: true, Measured: false},
		{ID: "f2.kw", Figure: "2", Quantity: "power", Unit: "kW", Paper: 18.5, Measured: 18.5, DevPct: f(0), Band: atLeast(18), Reason: "perfmodel input: set to the paper's value"},
		{ID: "f2.x.c1", Figure: "2", Quantity: "t", Unit: "s", Measured: 0.00029339},
		{ID: "f2.y.c1", Figure: "2", Quantity: "u", Unit: "s", Measured: 2.0},
	}
	for _, tc := range []struct {
		name, spec, want string
	}{
		{"list with band", "f1.a.n1", "| row | quantity | paper | measured | dev % | band |\n| --- | --- | --- | --- | --- | --- |\n" +
			"| `f1.a.n1` | a at 1 (GFLOPS) | 10 | 11 | +10.0 | [9, 12] |\n"},
		{"list with reason, claim and prefix", "f1.gain f1.h*", "| row | quantity | paper | measured | dev % | band |\n| --- | --- | --- | --- | --- | --- |\n" +
			"| `f1.gain` | gain (ratio) | 0.2 | 0.15 | -25.0 | known deviation 9 |\n" +
			"| `f1.holds` | a beats b | true | false |  |  |\n"},
		{"list with band and reason", "f2.kw", "| row | quantity | paper | measured | dev % | band |\n| --- | --- | --- | --- | --- | --- |\n" +
			"| `f2.kw` | power (kW) | 18.5 | 18.5 | +0.0 | ≥ 18; perfmodel input |\n"},
		{"ragged grid", "grid f1.*.n*", "| `f1.*.n*` (GFLOPS) | a | b |\n| --- | --- | --- |\n" +
			"| 1 | 11 | 1235 |\n| 2 | 20.5 | — |\n"},
		{"grid with one unit per column, transposed", "grid f2.*.c*", "| `f2.*.c*` (s) | 1 |\n| --- | --- |\n" +
			"| x | 0.0002934 |\n| y | 2 |\n"},
		{"scorecard", "scorecard", "| figure | bands held | worst \\|dev %\\| | claims held |\n| --- | --- | --- | --- |\n" +
			"| 1 | 1/1 | 25.0 (`f1.gain`) | 0/1 |\n| 2 | 1/1 | 0.0 (`f2.kw`) | 0/0 |\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := render(tc.spec, rows)
			if err != nil {
				t.Fatal(err)
			}
			if got := tbl.markdown(); got != tc.want {
				t.Errorf("render(%q) =\n%s\nwant\n%s", tc.spec, got, tc.want)
			}
		})
	}
	for v, want := range map[float64]string{0: "0", 2960: "2960", 10287.3: "10287", -3.5266: "-3.527", 0.1: "0.1", 0.00029339: "0.0002934", 1.1023e-12: "1.102e-12"} {
		if got := num(v); got != want {
			t.Errorf("num(%v) = %s, want %s", v, got, want)
		}
	}
	for _, spec := range []string{"f9.none", "grid f1.*", "grid f9.*.n*"} {
		if _, err := render(spec, rows); err == nil {
			t.Errorf("render(%q) rendered; want an error", spec)
		}
	}
	doc := "x\n<!-- ledger: grid f1.*.n* -->\n| stale |\n<!-- /ledger -->\ny\n"
	synced, diffs, errs := syncBlocks("doc", doc, rows)
	if len(errs) != 0 || len(diffs) != 1 || !strings.HasPrefix(diffs[0], `doc:2: block "grid f1.*.n*" differs`) {
		t.Fatalf("stale block: diffs %q, errs %q", diffs, errs)
	}
	if again, diffs, _ := syncBlocks("doc", synced, rows); again != synced || len(diffs) != 0 {
		t.Errorf("a synced document does not sync to itself: %q", diffs)
	}
	edited := strings.Replace(synced, "20.5", "20.6", 1)
	if _, diffs, _ := syncBlocks("doc", edited, rows); len(diffs) != 1 || !strings.HasSuffix(diffs[0], "in f1.a.n2") {
		t.Errorf("an edited cell is not named by its row: %q", diffs)
	}
}
