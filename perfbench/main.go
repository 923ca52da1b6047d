// Command perfbench is the repository benchmark. It drives the pqs stack
// through the public functions of each layer (the pqs facade, register,
// quorum, transport, wire, replica and load) on one of three workloads,
// checks that the outputs are correct, and prints every metric by name and
// unit. Run it from the repository root:
//
//	bash perfbench/run.sh --workload mem-mixed --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//   - mem-mixed: n=100, q=23 on the in-process MemNetwork, two closed-loop
//     callers, 90% reads / 10% writes of 64-byte values (closed.go).
//   - tcp-mixed: the same shape and mix over loopback TCP: 100 replica
//     servers in this process behind one multiplexed client (closed.go).
//   - population: load.Run at n=1000 (q=63) with 10k SimClock clients,
//     churn waves, the timed ε(D) gate and a latency phase (population.go).
//
// --trace 0 reports the end-to-end metrics of an untraced run, made of
// three child processes that each set up and measure a third of the time
// (see parts.go). --trace 1 runs the workload once untraced and once
// traced (spans around the calls into each layer, see trace.go, plus a CPU
// profile, see cpuprof.go) and reports the per-layer breakdown. The lines before the last are a
// human-readable table with sample counts; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// Metric names and units. endToEnd is reported by untraced runs, perLayer
// by traced runs; every name is printed on every workload (a layer a
// workload cannot observe reads 0 and is marked "n/a" in the table).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"register.self_us_per_op", "us"},
	{"register.dispatch_wait_us", "us"},
	{"register.tail_gap_us", "us"},
	{"transport.calls_per_op", "count"},
	{"transport.call_us_p50", "us"},
	{"transport.call_us_p99", "us"},
	{"transport.self_us_per_call", "us"},
	{"transport.err_per_op", "count"},
	{"transport.frames_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"wire.encode_decode_ns", "ns"},
	{"replica.handle_ns", "ns"},
	{"replica.handles_per_op", "count"},
	{"replica.store_entries", "count"},
	{"quorum.pick_ns", "ns"},
	{"quorum.picks_per_op", "count"},
	{"load.epsilon", "frac"},
	{"load.stale", "count"},
	{"load.departures", "count"},
	{"load.sim_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.goroutines_max", "count"},
	{"trace.overhead_frac", "frac"},
	{"cpu.register", "frac"},
	{"cpu.quorum", "frac"},
	{"cpu.transport", "frac"},
	{"cpu.wire", "frac"},
	{"cpu.replica", "frac"},
	{"cpu.diffusion", "frac"},
	{"cpu.vtime", "frac"},
	{"cpu.load", "frac"},
	{"cpu.runtime.sched", "frac"},
}

type metricDef struct{ name, unit string }

// report collects one run's outcome: the metrics of the run kind, their
// sample counts for the table, and the correctness verdict.
type report struct {
	values  map[string]float64
	samples map[string]int
	notes   []string

	correct   bool
	attempted int64
	failed    int64

	// digest is a population part's replay digest, compared across parts.
	digest string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, correct: true}
}

// set records a metric with the number of samples it summarizes.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// note adds a line to the human-readable table.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.note("CHECK FAILED: "+format, args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the table and then the JSON result line for defs.
func (r *report) print(workload string, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		count := "n/a"
		if ok {
			count = fmt.Sprintf("n=%d", r.samples[d.name])
		}
		fmt.Printf("%-12s %-28s %16.6f %-6s %s\n", workload, d.name, v, d.unit, count)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	workload := flag.String("workload", "", "mem-mixed, tcp-mixed or population")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer breakdown, 0 the end-to-end metrics")
	part := flag.Bool("part", false, "run one part of an untraced run and print its raw result (used by the parent process)")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var r *report
	var err error
	switch {
	case *workload != "mem-mixed" && *workload != "tcp-mixed" && *workload != "population":
		err = fmt.Errorf("unknown --workload %q", *workload)
	case *trace == 0 && !*part:
		r, err = runParts(*workload, *seed, dur)
	case *workload == "population":
		r, err = runPopulation(*seed, *trace == 1)
	default:
		r, err = runClosed(closedConfig{
			plane:   planeOf(*workload),
			seed:    *seed,
			measure: dur,
			traced:  *trace == 1,
		})
	}
	switch {
	case err != nil:
	case *part:
		err = r.printPart()
	case *trace == 1:
		err = r.print(*workload, perLayer)
	default:
		err = r.print(*workload, endToEnd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
