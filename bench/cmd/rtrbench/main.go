// Command rtrbench runs the repository's benchmark (see bench/README.md).
//
//	rtrbench -seed 2011                   # every workload, each in a fresh child process
//	rtrbench -seed 2011 -trace 1          # the traced run: per-layer metrics and trace files
//	rtrbench -runs 10 -set a -out F.json  # ten runs per workload (seeds 2011..2020) into set "a" of F.json
//	rtrbench -workload fig9-lfd -seed 7   # one run of one workload, in this process
//	rtrbench compare A.json B.json#set    # the decision rule between two sets of runs
//
// A one-workload run prints its report on stderr and its result as one
// JSON object on the last line of stdout; it exits non-zero when the
// output is wrong. Double-dash flags (--workload) work too.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"repro/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 2011, "workload seed; the multi-seed grid uses seed..seed+7")
		seconds  = flag.Float64("seconds", 20, "measuring budget of one run, in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced: per-layer metrics instead of end-to-end ones, and a trace file per workload")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory receiving trace-<workload>.json")
		scale    = flag.String("scale", "full", "workload sizes: full or smoke")
		runs     = flag.Int("runs", 1, "runs per workload, seeded seed, seed+1, …")
		out      = flag.String("out", ".bench_build/rtrbench.json", "results file the runs are written to")
		set      = flag.String("set", "", "set of -out the runs replace (default: untraced or traced)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "rtrbench: -trace takes 0 or 1")
		os.Exit(2)
	}
	opt := bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		TraceDir: *traceDir, Scale: bench.Scale(*scale), Log: os.Stderr,
	}
	if *workload != "" {
		os.Exit(runOne(opt))
	}
	name := *set
	if name == "" {
		name = "untraced"
		if opt.Trace {
			name = "traced"
		}
	}
	os.Exit(runAll(opt, *runs, *out, name))
}

// runOne runs one workload in this process.
func runOne(opt bench.Options) int {
	res, err := bench.Run(opt)
	if res.Attempted > 0 {
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "%s seed %d: correct %v, %d attempted, %d failed\n",
			opt.Workload, opt.Seed, res.Correct, res.Attempted, res.Failed)
		for _, k := range names {
			fmt.Fprintf(os.Stderr, "  %-36s %16.9g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "rtrbench:", jerr)
			return 1
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtrbench:", err)
		return 1
	}
	return 0
}

// runAll runs every workload, each run in a fresh child process, one at
// a time, and records the runs as one set of the results file. The
// workloads take turns, so a slow spell of a shared host spreads over
// all of them instead of taking every run of one.
func runAll(opt bench.Options, runs int, out, set string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtrbench:", err)
		return 1
	}
	var records []bench.RunRecord
	status := 0
	for i := 0; i < runs; i++ {
		for _, w := range bench.Workloads {
			seed := opt.Seed + int64(i)
			rec := bench.RunRecord{Workload: w, Seed: seed, Trace: opt.Trace}
			res, err := child(exe, w, seed, opt)
			rec.Result = res
			if err != nil {
				rec.Error = err.Error()
				status = 1
				fmt.Fprintf(os.Stderr, "rtrbench: %s seed %d: %v\n", w, seed, err)
			}
			records = append(records, rec)
		}
	}
	printMedians(records)
	f, err := bench.ReadFile(out)
	if err == nil {
		f.Host = bench.ThisHost()
		f.Sets[set] = records
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = bench.WriteFile(out, f)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtrbench:", err)
		return 1
	}
	fmt.Printf("wrote set %q of %s\n", set, out)
	return status
}

// child runs one workload in a child process and parses its result line.
func child(exe, workload string, seed int64, opt bench.Options) (bench.Result, error) {
	trace := "0"
	if opt.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opt.Seconds, 'g', -1, 64),
		"-trace", trace,
		"-trace-dir", opt.TraceDir, "-scale", string(opt.Scale))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var res bench.Result
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &res); err != nil && runErr == nil {
		runErr = fmt.Errorf("no result line: %w", err)
	}
	return res, runErr
}

// printMedians prints each workload's metrics as medians over its runs.
func printMedians(records []bench.RunRecord) {
	for _, w := range bench.Workloads {
		vals := make(map[string][]float64)
		unit := make(map[string]string)
		for _, r := range records {
			if r.Workload != w {
				continue
			}
			for k, v := range r.Result.Metrics {
				vals[k] = append(vals[k], v.Value)
				unit[k] = v.Unit
			}
		}
		if len(vals) == 0 {
			continue
		}
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("%s (median of %d runs):\n", w, len(vals[names[0]]))
		for _, k := range names {
			fmt.Printf("  %-36s %16.9g %s\n", k, bench.Summarize(vals[k]).Median, unit[k])
		}
	}
}

// compare applies the decision rule between two sets of runs.
func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rtrbench compare BASE[#SET] CHANGE[#SET]")
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	base, err := bench.ReadSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtrbench:", err)
		return 1
	}
	change, err := bench.ReadSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtrbench:", err)
		return 1
	}
	rows := bench.Compare(base, change)
	bench.PrintComparison(os.Stdout, rows)
	status := 0
	for _, r := range rows {
		switch r.Verdict {
		case bench.Regression, bench.Unresolved, bench.Failure:
			status = 1
		}
	}
	return status
}
