package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// worsening is how far b's median sits on the wrong side of a's, as a share
// of a's median (negative when b is better).
func worsening(m metric, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if m.Better == higher {
		d = -d
	}
	return d
}

// judge compares the samples of one metric: a is the parent, b the change.
// Within the bound is within. Beyond it, the change is better or worse by
// the metric's direction — unless the parent's own quartile spread is wider
// than the bound, in which case the difference is unresolved, except when
// every sample of the change beats every sample of the parent.
func judge(m metric, a, b []float64) verdict {
	d := worsening(m, median(a), median(b))
	if spread(a) > m.Bound && len(a) > 1 {
		sa, sb := sorted(a), sorted(b)
		if m.Better == lower && sb[len(sb)-1] < sa[0] || m.Better == higher && sb[0] > sa[len(sa)-1] {
			return better
		}
		return unresolved
	}
	switch {
	case d > m.Bound:
		return worse
	case d < -m.Bound:
		return better
	}
	return within
}

// samplesOf returns a run's samples of an end-to-end metric: the raw host
// samples, or the single exact value of a simulated one.
func samplesOf(run *workloadRun, name string) ([]float64, bool) {
	switch name {
	case "setup_s":
		return run.SetupS, true
	case "op_wall_ms_p50":
		return run.WallMs, true
	case "op_alloc_mb":
		return run.AllocMB, true
	}
	v, ok := run.Values[name]
	return []float64{v}, ok
}

// compareFiles prints, per workload and end-to-end metric, both medians with
// their quartiles, the bound and the verdict; then checks that every
// simulated-time and count metric agrees exactly. It fails when any metric
// is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Par != b.Par {
		return fmt.Errorf("not comparable: %s has seed %d par %d, %s has seed %d par %d",
			pathA, a.Seed, a.Par, pathB, b.Seed, b.Par)
	}
	if len(a.Workloads) != len(b.Workloads) {
		return fmt.Errorf("not comparable: %d workloads against %d", len(a.Workloads), len(b.Workloads))
	}
	fmt.Fprintf(w, "A = %s\nB = %s\nseed %d, par %d\n", pathA, pathB, a.Seed, a.Par)

	counts := map[verdict]int{}
	differing := 0
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		if ra.Workload != rb.Workload || len(ra.WallMs)+ra.Failed != len(rb.WallMs)+rb.Failed {
			return fmt.Errorf("not comparable: %s with %d passes against %s with %d",
				ra.Workload, len(ra.WallMs)+ra.Failed, rb.Workload, len(rb.WallMs)+rb.Failed)
		}
		fmt.Fprintf(w, "\n== %s (%d passes; failed %d -> %d)\n", ra.Workload, len(ra.WallMs), ra.Failed, rb.Failed)
		fmt.Fprintf(w, "   %-26s %-7s %36s %36s %7s  %s\n", "metric", "unit", "A median [q1..q3]", "B median [q1..q3]", "bound", "verdict")
		for _, m := range append(append([]metric(nil), endToEnd...), scopedEndToEnd...) {
			sa, okA := samplesOf(ra, m.Name)
			sb, okB := samplesOf(rb, m.Name)
			if !okA && !okB {
				continue
			}
			v, note := judge(m, sa, sb), ""
			if (ra.Noisy || rb.Noisy) && clockOf(m) == "host" && v != within {
				// The host changed speed under one of the runs: a
				// difference in host time says nothing about the code.
				v, note = unresolved, " (noisy)"
			}
			if rb.Failed > ra.Failed {
				v = worse // a gain does not count when more operations fail
			}
			counts[v]++
			fmt.Fprintf(w, "   %-26s %-7s %36s %36s %6.2f%%  %s%s\n", m.Name, m.Unit, quartileText(sa), quartileText(sb), 100*m.Bound, v, note)
		}

		// Exact agreement of everything that derives from the seed alone.
		names := map[string]bool{}
		for _, vs := range []values{ra.Values, rb.Values, ra.Layer, rb.Layer} {
			for k := range vs {
				if isExact(k) {
					names[k] = true
				}
			}
		}
		var ordered []string
		for k := range names {
			ordered = append(ordered, k)
		}
		sort.Strings(ordered)
		for _, k := range ordered {
			va, vb := lookup(ra, k), lookup(rb, k)
			if math.Float64bits(va) != math.Float64bits(vb) {
				differing++
				fmt.Fprintf(w, "   DIFFERS %-32s %.17g -> %.17g\n", k, va, vb)
			}
		}
	}
	fmt.Fprintf(w, "\nverdicts: %d better, %d within, %d worse, %d unresolved\n",
		counts[better], counts[within], counts[worse], counts[unresolved])
	if differing == 0 {
		fmt.Fprintf(w, "every simulated-time and count metric is bit-identical\n")
	} else {
		fmt.Fprintf(w, "%d simulated-time or count metrics differ\n", differing)
	}
	if counts[worse] > 0 {
		return fmt.Errorf("%d metrics are worse beyond their bound", counts[worse])
	}
	return nil
}

func lookup(run *workloadRun, name string) float64 {
	if v, ok := run.Values[name]; ok {
		return v
	}
	return run.Layer[name]
}

func quartileText(xs []float64) string {
	if len(xs) == 1 {
		return fmt.Sprintf("%.9g", xs[0])
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g..%.5g]", med, q1, q3)
}
