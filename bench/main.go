// Command bench is the repository's ingestion benchmark: one process runs
// one workload against a real asterixfeeds.Instance fed by a push-based TCP
// source that the stock socket_adaptor dials, checks what was stored, and
// prints every metric by name with its unit.
//
//	bench --workload flood_plain_1n --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics BENCHMARK.json declares; --trace 1 prints
// the per-layer metrics instead, from the same workload run under a 100 ms
// poller followed by a single-goroutine replay of the stream through each
// layer's public functions, whose spans go to <out>/<workload>.trace.json.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --workload all runs every
// workload in a child process each, and --repeat k runs k interleaved
// rounds and judges the spread of every end-to-end metric against its
// bound. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is BENCHMARK.json: the one place that names the workloads and
// the metrics, their units, directions and regression bounds.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &contract{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// reported is a metric value as the result line carries it.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	contract string
	repeat   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics of a traced run and a layer replay")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for data, traces and logs")
	flag.StringVar(&o.contract, "contract", "BENCHMARK.json", "the benchmark's declaration")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many interleaved rounds and judge the spread of every metric")
	flag.Parse()
	c, err := loadContract(o.contract)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		o.seconds = c.RunSeconds
	}
	switch {
	case o.repeat > 0:
		err = repeat(c, o)
	case o.workload == "all":
		for _, w := range c.Workloads {
			if _, cerr := child(o, w.Name, o.seed, os.Stdout); cerr != nil {
				err = cerr
			}
		}
	default:
		err = one(c, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// one runs a single workload in this process and prints its result.
func one(c *contract, o options) error {
	sp, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	z := sp.sizesFor(o.seconds)
	fmt.Printf("# %s seed=%d seconds=%d trace=%d nproc=%d %s\n", sp.name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.Version())
	decls := c.EndToEnd
	var tr *tracer
	if o.trace != 0 {
		decls = c.PerLayer
		tr = newTracer(fmt.Sprintf("%s-seed%d", sp.name, o.seed))
		z.setups = 1
	}
	m, err := run(sp, o.seed, z, o.out, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		layers, err := runReplay(tr, o.seed, replayRecords, filepath.Join(o.out, fmt.Sprintf("replay-%s-%d", sp.name, os.Getpid())))
		if err != nil {
			return fmt.Errorf("layer replay: %w", err)
		}
		for k, v := range layers {
			m.values[k] = v
		}
		budget(sp, m.values, float64(z.lookups)/float64(z.records))
		if err := tr.write(filepath.Join(o.out, sp.name+".trace.json")); err != nil {
			return err
		}
	}
	return report(m, decls)
}

// report prints every value the run produced and then the result line with
// exactly the declared metrics.
func report(m *measured, decls []metricDecl) error {
	units := map[string]string{}
	for _, d := range decls {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(m.values))
	for name := range m.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-44s %16.6f %s\n", name, m.values[name], units[name])
	}
	for _, f := range m.failures {
		fmt.Println("FAILED:", f)
	}
	res := resultLine{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]reported{}}
	for _, d := range decls {
		v, ok := m.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (measured: %v, value %v)", d.Name, ok, v)
		}
		res.Metrics[d.Name] = reported{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", m.failed, m.attempted)
	}
	return nil
}
