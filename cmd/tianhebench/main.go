// Command tianhebench is the repository's end-to-end benchmark: six
// closed-loop workloads over the public functions of every module, measured
// on two clocks — simulated time, bit-exact from the seed, and host time,
// compared by median under a bound — with per-layer probes and a traced run
// that says where a pass's host time goes. See README.md beside this file.
//
//	go run ./cmd/tianhebench -seed 2009 -o out        # everything, ~2.5 min
//	go run ./cmd/tianhebench -compare a/report.json b/report.json
//	go run ./cmd/tianhebench -workload lu-real -seed 7 -seconds 15 -trace 0
//
// The last form is what BENCHMARK.json's driver runs: one workload, measured
// for -seconds, ending in one JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeed is the repository's experiments.DefaultSeed. 4242 is the
// held-out seed: report it, never tune on it.
const defaultSeed = 2009

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tianhebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tianhebench", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "seed every workload input derives from (4242 is the held-out seed)")
	outDir := fs.String("o", "", "directory for report.json, trace.json and layers.txt (full run)")
	name := fs.String("workload", "", "measure this one workload and end with one JSON result line")
	seconds := fs.Float64("seconds", 0, "measure each workload for this long instead of its fixed pass count")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the traced run and the probes and prints the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two report.json files: tianhebench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report.json files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// Every Par/Workers argument gets the same small worker count, recorded
	// in the output: host numbers compare only at equal par.
	e := env{seed: *seed, par: min(runtime.GOMAXPROCS(0), 4)}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		if *seconds <= 0 {
			return fmt.Errorf("-workload needs -seconds")
		}
		return runContract(stdout, w, e, *seconds, *trace != 0)
	}
	return runFull(stdout, e, *seconds, *outDir)
}

// runContract measures one workload the way BENCHMARK.json's driver asks.
// Untraced, it sets up three times (setup_s is their median) and spends the
// whole budget on untraced passes. Traced, it splits the budget between
// untraced and traced passes, then runs the probes of the workload's layers.
func runContract(stdout io.Writer, w *workload, e env, seconds float64, trace bool) error {
	plan := runPlan{env: e, setups: 3, untraced: budget{seconds: seconds}}
	if trace {
		plan = runPlan{env: e, setups: 1, untraced: budget{seconds: 0.5 * seconds}, traced: budget{seconds: 0.3 * seconds}}
	}
	run, err := measure(w, plan)
	if err != nil {
		return err
	}
	printEndToEnd(stdout, run)
	defs, vals := endToEnd, run.endToEndValues()
	if trace {
		printSpanTable(stdout, run)
		if vals, err = layerValues(w, run, e); err != nil {
			return err
		}
		printLayers(stdout, vals)
		defs = layerMetricNames()
	}
	if err := writeContractLine(stdout, run, defs, vals); err != nil {
		return err
	}
	if run.Failed > 0 {
		return fmt.Errorf("%s: %d of %d passes failed their checks", w.name, run.Failed, run.Passes)
	}
	return nil
}

// runFull measures all six workloads, traced run and probes included, and
// writes the report.
func runFull(stdout io.Writer, e env, seconds float64, outDir string) error {
	fmt.Fprintf(stdout, "tianhebench: seed %d, par %d (GOMAXPROCS %d), %s\n", e.seed, e.par, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "two clocks: virt_* is simulated time, bit-exact from the seed; the rest is host time, compared by median under its bound\n")
	fmt.Fprintf(stdout, "serve-ladder schedules arrivals on the virtual axis: generator lateness is zero by construction\n")
	rep := newReport(e)
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		plan := runPlan{env: e, setups: 5, untraced: budget{passes: w.passes}, traced: budget{passes: max(w.passes/4, 10)}}
		if seconds > 0 {
			plan.untraced, plan.traced = budget{seconds: seconds}, budget{seconds: seconds / 4}
		}
		run, err := measure(w, plan)
		if err != nil {
			return err
		}
		printEndToEnd(stdout, run)
		printSpanTable(stdout, run)
		if run.Layer, err = layerValues(w, run, e); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n== %s: per-layer metrics\n", w.name)
		printLayers(stdout, run.Layer)
		rep.Workloads = append(rep.Workloads, run)
		failed += run.Failed
	}
	// Every declared per-layer metric must have been measured under some
	// workload; one that was not is a hole in the probe table.
	for _, m := range layerMetricNames() {
		measured := false
		for _, run := range rep.Workloads {
			_, ok := run.Layer[m.Name]
			measured = measured || ok
		}
		if !measured {
			return fmt.Errorf("metric %s was never measured", m.Name)
		}
	}
	if outDir != "" {
		if err := writeOutputs(outDir, rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", filepath.Join(outDir, "{report.json,trace.json,layers.txt}"))
	}
	if failed > 0 {
		return fmt.Errorf("%d passes failed their checks", failed)
	}
	fmt.Fprintf(stdout, "\nall checks passed\n")
	return nil
}

// writeOutputs writes the machine-readable report, the Chrome trace of the
// traced runs, and the per-layer tables.
func writeOutputs(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fill func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("report.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(rep)
	}); err != nil {
		return err
	}
	if err := write("trace.json", func(w io.Writer) error { return writeChromeTrace(w, rep.Workloads) }); err != nil {
		return err
	}
	return write("layers.txt", func(w io.Writer) error {
		for _, run := range rep.Workloads {
			printSpanTable(w, run)
			fmt.Fprintf(w, "\n== %s: per-layer metrics\n", run.Workload)
			printLayers(w, run.Layer)
		}
		return nil
	})
}
