package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tianhe/internal/experiments"
	"tianhe/internal/telemetry"
)

// TestRunFlows drives the -db cross-run workflow through its three states
// (no file yet, a saved file, a corrupt file), an unwritable -o and a
// ledger that fails, as a serving sweep breaking its contract does. The
// rows run in order: the second loads what the first saved.
func TestRunFlows(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "database_g.json")
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		args     []string
		code     int
		stdout   string
		stderr   string
		wantFile string
		// ledgerErr, when set, is the error the ledger returns.
		ledgerErr error
	}{
		{"first -db run saves", []string{"-db", db}, 0, "no database at " + db, "", db, nil},
		{"second -db run loads", []string{"-db", db}, 0, "loaded database_g from " + db, "", db, nil},
		{"corrupt -db file", []string{"-db", corrupt}, 1, "", "figures: corrupt database " + corrupt, "", nil},
		{"unwritable -o", []string{"-o", filepath.Join(dir, "missing", "BENCH_paper.json")}, 1, "", "figures: open ", "", nil},
		{"ledger error", nil, 1, "", "figures: serve acceptance failed: lost-gpu sweep never drained a batch\n", "",
			errors.New("serve acceptance failed: lost-gpu sweep never drained a batch")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ledgerErr != nil {
				ledger = func(uint64, int, *telemetry.Telemetry) ([]experiments.Row, error) { return nil, tc.ledgerErr }
				t.Cleanup(func() { ledger = experiments.Ledger })
			}
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, &stdout)
			}
			if tc.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr = %q, want %q", &stderr, tc.stderr)
			}
			if tc.wantFile != "" {
				if _, err := os.Stat(tc.wantFile); err != nil {
					t.Errorf("%s not written: %v", tc.wantFile, err)
				}
			}
		})
	}
}
