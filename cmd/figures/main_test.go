package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlows drives the -db cross-run workflow through its three states
// (no file yet, a saved file, a corrupt file) and an unwritable -o. The
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
	}{
		{"first -db run saves", []string{"-db", db}, 0, "no database at " + db, "", db},
		{"second -db run loads", []string{"-db", db}, 0, "loaded database_g from " + db, "", db},
		{"corrupt -db file", []string{"-db", corrupt}, 1, "", "figures: corrupt database " + corrupt, ""},
		{"unwritable -o", []string{"-o", filepath.Join(dir, "missing", "BENCH_paper.json")}, 1, "", "figures: open ", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
