// Command figures regenerates the paper's evaluation (Section VI) in one
// run and writes the paper-fidelity ledger: every number of Figs 8–13, the
// training-energy and Green500 accounting, the ablations and the ABFT
// overhead table, one row each, with the paper's value, the deviation and
// the accepted band where the paper gives one. The committed copy is
// BENCH_paper.json; `make paperbench` diffs a fresh run against it. The
// rows are deterministic in -seed and identical for every -par.
//
// -db runs the cross-run database_g workflow instead: load the file if it
// exists, run ACMLG+both Linpack at N=46080, save the adapted state back.
// -trace writes the Fig. 8, 9 and 10 runs (or the -db run) as Chrome
// trace-event JSON; -metrics prints the telemetry registry after them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/experiments"
	"tianhe/internal/linpacksim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", experiments.DefaultSeed, "experiment seed")
	par := fs.Int("par", 0, "worker count for the sweeps (<=0: GOMAXPROCS); the rows are identical for every value")
	out := fs.String("o", "", "write the ledger to this file (default: standard output)")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON of the Fig. 8, 9 and 10 runs to this file")
	metrics := fs.Bool("metrics", false, "print the telemetry metric dump after the runs")
	dbFile := fs.String("db", "", "persist database_g across runs: load it before an ACMLG+both Linpack at N=46080 and save the adapted state back, instead of the ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var tel *telemetry.Telemetry
	if *tracePath != "" || *metrics {
		tel = telemetry.New()
	}
	if *dbFile != "" {
		if err := persistedRun(stdout, *seed, *dbFile, tel); err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
	} else if err := writeLedger(stdout, *out, *seed, sweep.Workers(*par), tel); err != nil {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return 1
	}

	if *tracePath != "" {
		var buf bytes.Buffer
		err := tel.Trace.WriteJSON(&buf)
		if err == nil {
			err = os.WriteFile(*tracePath, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "figures: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d trace events to %s\n", tel.Trace.Len(), *tracePath)
	}
	if *metrics {
		fmt.Fprintln(stdout)
		tel.Metrics.WriteText(stdout)
	}
	return 0
}

// writeLedger computes the ledger and writes it to path, or to stdout when
// path is empty. The file is created first, so a bad path fails before the
// figures run.
func writeLedger(stdout io.Writer, path string, seed uint64, par int, tel *telemetry.Telemetry) error {
	w := stdout
	var f *os.File
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	rows := experiments.Ledger(seed, par, tel)
	if err := experiments.WriteLedger(w, seed, par, rows); err != nil {
		return fmt.Errorf("writing the ledger: %w", err)
	}
	if f == nil {
		return nil
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing the ledger: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %d rows to %s\n", len(rows), path)
	return nil
}

// persistedRun executes one adaptive Linpack with database_g loaded from
// (and saved back to) dbFile, so successive invocations start from the
// previous run's learned splits.
func persistedRun(stdout io.Writer, seed uint64, dbFile string, tel *telemetry.Telemetry) error {
	el := element.New(element.Config{Seed: seed, Virtual: true})
	cfg := linpacksim.Config{N: 46080, Variant: element.ACMLGBoth, Seed: seed, Telemetry: tel}
	if blob, err := os.ReadFile(dbFile); err == nil {
		var g adaptive.DatabaseG
		if err := json.Unmarshal(blob, &g); err != nil {
			return fmt.Errorf("corrupt database %s: %v", dbFile, err)
		}
		cfg.Part = adaptive.NewAdaptiveFromDatabase(&g, el.CPU.NumCores())
		fmt.Fprintf(stdout, "loaded database_g from %s\n", dbFile)
	} else {
		fmt.Fprintf(stdout, "no database at %s; starting from the 0.889 peak ratio\n", dbFile)
	}
	res := linpacksim.Run(cfg)
	fmt.Fprintf(stdout, "N=%d NB=%d: %.1f GFLOPS\n", res.N, res.NB, res.GFLOPS)
	ad, ok := adaptive.AsAdaptive(res.Part)
	if !ok {
		return errors.New("run returned a non-adaptive partitioner")
	}
	blob, err := json.MarshalIndent(ad.G, "", "  ")
	if err == nil {
		err = os.WriteFile(dbFile, blob, 0o644)
	}
	if err != nil {
		return fmt.Errorf("saving database: %v", err)
	}
	fmt.Fprintf(stdout, "saved adapted database_g to %s\n", dbFile)
	return nil
}
