package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a process of its own, copies what it prints
// to w, and returns its result line.
func child(o options, workload string, seed int64, w io.Writer) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
		"--out", o.out, "--contract", o.contract)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, w)
	cmd.Stderr = os.Stderr
	fmt.Fprintf(w, "== %s seed %d\n", workload, seed)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	res := &resultLine{}
	if err := json.Unmarshal(last, res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// worse is by how large a share of a the value b is worse than a.
func worse(d metricDecl, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeat runs o.repeat interleaved rounds of the workloads, each round on
// another seed, and prints for every metric its median, quartiles and
// spread — (q3 − q1) ÷ median — against the metric's bound. It fails when a
// spread exceeds the bound (set-up time excepted) or when the medians of
// the two halves of the rounds disagree by more than the bound, which is
// what two sets of runs of identical code must not do.
func repeat(c *contract, o options) error {
	var workloads []string
	for _, w := range c.Workloads {
		if o.workload == "all" || o.workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	decls := c.EndToEnd
	if o.trace != 0 {
		decls = c.PerLayer
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per round
	for round := 0; round < o.repeat; round++ {
		for _, w := range workloads {
			res, err := child(o, w, o.seed+int64(round), io.Discard)
			if err != nil {
				return err
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, r := range res.Metrics {
				values[w][name] = append(values[w][name], r.Value)
			}
			line, _ := json.Marshal(res) // a resultLine always marshals
			fmt.Printf("round %d %s %s\n", round+1, w, line)
		}
	}
	bad := 0
	for _, w := range workloads {
		fmt.Printf("\n%s (%d rounds)\n%-34s %14s %14s %14s %8s %8s %8s\n", w, o.repeat,
			"metric", "median", "q1", "q3", "spread", "halves", "bound")
		for _, d := range decls {
			vs := values[w][d.Name]
			q1, med, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			_, first, _ := quartiles(vs[:len(vs)/2])
			_, second, _ := quartiles(vs[len(vs)/2:])
			drift := worse(d, first, second)
			if drift < 0 {
				drift = worse(d, second, first)
			}
			verdict := ""
			if d.Bound > 0 && (drift > d.Bound || (spread > d.Bound && d.Name != "setup_s")) {
				verdict = "  NOISY"
				bad++
			}
			fmt.Printf("%-34s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%%%s\n",
				d.Name, med, q1, q3, 100*spread, 100*drift, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics spread or drifted beyond their bounds", bad)
	}
	return nil
}
