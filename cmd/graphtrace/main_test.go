package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tianhe/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current scheduler")

// The -golden task tables are the CI contract for the dataflow scheduler:
// any drift in placement, ordering, or booked times against the committed
// schedules is a diff, caught here under `make check`.
func TestGoldenSchedules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		golden string
	}{
		{"lu", []string{"-workload", "lu", "-golden"}, "lu.golden"},
		{"lu-hybrid", []string{"-workload", "lu", "-golden", "-hybrid"}, "lu-hybrid.golden"},
		{"stencil", []string{"-workload", "stencil", "-golden"}, "stencil.golden"},
		{"stencil-hybrid", []string{"-workload", "stencil", "-golden", "-hybrid"}, "stencil-hybrid.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tc.args); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s schedule drifted from the golden; regenerate deliberately with `go test ./cmd/graphtrace -update`\ngot:\n%s", tc.name, clip(buf.String()))
			}
		})
	}
}

func clip(s string) string {
	lines := strings.SplitN(s, "\n", 12)
	if len(lines) == 12 {
		lines[11] = "..."
	}
	return strings.Join(lines, "\n")
}

// TestGanttRenders checks the human-facing mode: one lane per device, busy
// percentages, and a makespan footer.
func TestGanttRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-workload", "lu", "-n", "1024", "-nb", "256"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graphtrace lu n=1024", "device", "gpu", "cpu0", "busy"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt output missing %q:\n%s", want, out)
		}
	}
}

// TestTraceExport writes the Chrome trace-event JSON and decodes it back.
func TestTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lu.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-workload", "lu", "-n", "1024", "-nb", "256", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("graphtrace wrote no trace file: %v", err)
	}
	defer f.Close()
	events, err := telemetry.ParseTrace(f)
	if err != nil {
		t.Fatalf("-trace output does not decode as Chrome trace-event JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("-trace output decoded to zero events")
	}
}

// TestBadWorkloadErrors keeps the flag surface honest.
func TestBadWorkloadErrors(t *testing.T) {
	if err := run(&bytes.Buffer{}, []string{"-workload", "fft"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
