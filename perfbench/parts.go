package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// An untraced run is split into parts: child processes of this binary, run
// one after another, each setting up and measuring its share of the run.
// On a shared 2-vCPU box, throughput and latency move by ±10% from one
// process to the next with no change in the inputs, so every end-to-end
// metric of the run is the median of its parts' values. A population run's
// parts must also replay one digest: load's replay contract, across
// processes.
const parts = 3

// partResult is the last line a part prints.
type partResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Digest    string             `json:"digest,omitempty"`
}

// printPart writes a part's notes and then its raw result.
func (r *report) printPart() error {
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	b, err := json.Marshal(partResult{
		Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.values, Samples: r.samples,
		Digest: r.digest,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runParts runs the parts of an untraced run and aggregates them.
func runParts(workload string, seed int64, d time.Duration) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := newReport()
	var results []partResult
	for i := 0; i < parts; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat((d/parts).Seconds(), 'f', -1, 64), "--trace", "0", "--part")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var p partResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
			return nil, fmt.Errorf("part %d: result: %w", i, err)
		}
		for _, l := range lines[:len(lines)-1] {
			r.note("part %d | %s", i, strings.TrimPrefix(l, "# "))
		}
		results = append(results, p)
	}

	for i, p := range results {
		r.attempted += p.Attempted
		r.failed += p.Failed
		if !p.Correct {
			r.fail("part %d failed a check (see its notes)", i)
		}
		if p.Digest != results[0].Digest {
			r.fail("part %d: digest %s differs from part 0's %s under one seed", i, p.Digest, results[0].Digest)
		}
	}
	for _, def := range endToEnd {
		var vals []float64
		n := 0
		for _, p := range results {
			vals = append(vals, p.Metrics[def.name])
			n += p.Samples[def.name]
		}
		r.set(def.name, median(vals), n)
	}
	return r, nil
}
