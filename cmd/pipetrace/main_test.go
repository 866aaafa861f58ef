package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tianhe/internal/telemetry"
)

// TestTraceExportRoundTrips builds the command, runs it with -trace on the
// 2x2 task split of Fig. 5, and decodes the JSON back: the file must parse as
// a Chrome trace-event export and contain the CT/NT state spans of Table I
// for the bounce-ordered tasks T0, T1, T3, T2.
func TestTraceExportRoundTrips(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pipetrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pipetrace: %v\n%s", err, out)
	}
	tracePath := filepath.Join(dir, "tablei.json")
	cmd := exec.Command(bin,
		"-m", "8192", "-n", "8192", "-k", "4096", "-tile", "4096",
		"-trace", tracePath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("running pipetrace: %v\n%s", err, out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("pipetrace wrote no trace file: %v", err)
	}
	defer f.Close()
	events, err := telemetry.ParseTrace(f)
	if err != nil {
		t.Fatalf("-trace output does not decode as Chrome trace-event JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("-trace output decoded to zero events")
	}

	ctTasks := make(map[string]bool)
	ntTasks := make(map[string]bool)
	for _, e := range events {
		if e.Phase != telemetry.PhaseSpan {
			continue
		}
		switch e.Track {
		case "CT":
			ctTasks[e.Name] = true
		case "NT":
			ntTasks[e.Name] = true
		}
	}
	for _, task := range []string{"T0", "T1", "T3", "T2"} {
		if !ctTasks[task] {
			t.Errorf("no CT state span for task %s in -trace output", task)
		}
	}
	for _, task := range []string{"T1", "T3", "T2"} {
		if !ntTasks[task] {
			t.Errorf("no NT state span for task %s in -trace output", task)
		}
	}
	// The resource trace of the pipelined execution rides along: both virtual
	// devices contribute span tracks.
	sawResource := false
	for _, e := range events {
		if e.Phase == telemetry.PhaseSpan && e.Track != "CT" && e.Track != "NT" {
			sawResource = true
			break
		}
	}
	if !sawResource {
		t.Error("-trace output has no resource spans beyond the CT/NT schedule")
	}
}

// TestBadShapeExitsOne: flag values the planner or the executor would panic
// on are rejected up front with one line on stderr and exit status 1.
func TestBadShapeExitsOne(t *testing.T) {
	for _, c := range []struct {
		m, n, k, tile int
		bad           string // a word of the message; "" when accepted
	}{
		{16384, 16384, 8192, 0, ""},
		{8192, 8192, 4096, 8192, ""},
		{0, 16384, 8192, 0, "positive"},
		{16384, -1, 8192, 0, "positive"},
		{16384, 16384, 0, 4096, "positive"},
		{16384, 16384, 8192, 12000, "texture limit"},
		{16384, 16384, 8192, 8193, "texture limit"},
	} {
		err := checkShape(c.m, c.n, c.k, c.tile)
		if (err != nil) != (c.bad != "") || (err != nil && !strings.Contains(err.Error(), c.bad)) {
			t.Errorf("checkShape(%d, %d, %d, %d) = %v, want an error about %q", c.m, c.n, c.k, c.tile, err, c.bad)
		}
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "pipetrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pipetrace: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-m", "0"}, {"-tile", "12000", "-gantt"}} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("pipetrace %v: %v, want exit status 1", args, err)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "pipetrace: ") {
			t.Errorf("pipetrace %v wrote %q to stderr, want one pipetrace: line", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("pipetrace %v printed %q before rejecting its flags", args, stdout.String())
		}
	}
}
