// Command perfbench is the repository's benchmark. It builds one of a few
// fixed 64-rank worlds through registry.Build, drives a macro workload on it
// with workload.Run, checks the outputs, and prints its metrics: end-to-end
// ones untraced (--trace 0), per-layer ones from a traced run (--trace 1).
// Every metric goes to standard output as a readable line with its unit,
// and the last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}
//
// Run it through run.sh, which builds it from the surrounding source tree.
// README.md explains the workloads, the metrics and the seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

const (
	// buildsPerRun is how many extra worlds are built, only to time
	// registry.Build, after each workload run; setup_s is the median over
	// all builds. A build takes a millisecond or less and single builds
	// scatter by 2x, so the median needs many, spread over the whole
	// measurement rather than bunched where one burst of host load can
	// shift them all.
	buildsPerRun = 10
	// warmBuilds come first and are not timed: the first builds of a
	// process pay for growing the heap.
	warmBuilds = 5
	// minRuns is the fewest workload runs one measurement makes, so the
	// repeat checks always compare something.
	minRuns = 3
)

// reading is one measured value; note says what it is a median or a share
// of, and is printed but not part of the JSON line.
type reading struct {
	value float64
	note  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	spansPath := fs.String("spans", "", "with --trace 1: write the recorded spans here as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have: %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	defs := endToEndDefs
	var vals map[string]reading
	var ck *checker
	if *traced == 1 {
		var tr *tracer
		defs = layerDefs
		vals, ck, tr = layers(b, *seed, budget)
		if *spansPath != "" && tr != nil {
			if err := writeSpans(*spansPath, tr.spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
		}
	} else {
		vals, ck = endToEnd(b, *seed, budget)
	}
	for _, p := range ck.problems {
		fmt.Fprintf(out, "FAIL %s: %s\n", b.name, p)
	}
	fail := ratio{float64(ck.failed), float64(ck.attempted), "SLO ops attempted"}
	fmt.Fprintf(out, "%-12s %-30s %14.6g %-10s %s\n", b.name, "fail_ratio", fail.value(), "ratio", fail)
	if err := report(out, b.name, ck, defs, vals); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if ck.failed > 0 {
		return 1
	}
	return 0
}

// report prints each metric as a readable line, then the JSON result line.
// A run that failed before measuring has no values and reports only its
// failures.
func report(out io.Writer, workload string, ck *checker, defs []metricDef, vals map[string]reading) error {
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		r, ok := vals[d.name]
		if !ok {
			if vals == nil {
				continue
			}
			return fmt.Errorf("metric %q was not measured", d.name)
		}
		if !validName(d.name) {
			return fmt.Errorf("metric name %q is not valid", d.name)
		}
		metrics[d.name] = map[string]any{"value": r.value, "unit": d.unit}
		note := r.note
		if d.target != "" {
			note += " -> " + d.target
		}
		fmt.Fprintf(out, "%-12s %-30s %14.6g %-10s %s\n", workload, d.name, r.value, d.unit, note)
	}
	if len(vals) != len(metrics) {
		return fmt.Errorf("measured %d metrics, %d are defined", len(vals), len(metrics))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   ck.failed == 0 && vals != nil,
		"attempted": max(ck.attempted, 1),
		"failed":    ck.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
