package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// TestGanttRenders checks the human-facing mode: one chart lane per element
// resource, each resource's busy share, and the makespan those shares are
// taken over, equal to the summary's.
func TestGanttRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-workload", "lu", "-n", "1024", "-nb", "256"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graphtrace lu n=1024") {
		t.Errorf("summary title missing:\n%s", out)
	}
	var makespan float64
	var lanes []string
	for _, line := range strings.Split(out, "\n") {
		fmt.Sscanf(line, "  makespan %f s virtual", &makespan)
		if name, bar, ok := strings.Cut(strings.TrimSpace(line), " |"); ok && name != "time" && strings.TrimSpace(bar) != "|" {
			lanes = append(lanes, name)
		}
	}
	resources := []string{"gpu.queue", "gpu.dma", "cpu.core0", "cpu.core1", "cpu.core2"}
	if want := []string{"lu/gpu.queue", "lu/gpu.dma", "lu/cpu.core0", "lu/cpu.core1", "lu/cpu.core2"}; !slices.Equal(lanes, want) {
		t.Errorf("chart lanes with bookings %v, want %v:\n%s", lanes, want, out)
	}
	if makespan <= 0 {
		t.Fatalf("no makespan in the summary:\n%s", out)
	}
	for _, r := range resources {
		if want := fmt.Sprintf("%-12s busy ", r); !strings.Contains(out, want) {
			t.Errorf("busy share of %s missing:\n%s", r, out)
		}
	}
	if want := fmt.Sprintf(" s of %8.4f s  (", makespan); strings.Count(out, want) != len(resources) {
		t.Errorf("busy shares not all taken over the %.6f s makespan:\n%s", makespan, out)
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
