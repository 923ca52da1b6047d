// Command pqs-chaos runs the chaos scenario matrix from the command line
// and emits a JSON report: one entry per scenario (and per transport) with
// the empirical ε, the theorem bound, the checker's p-value and the
// PBS-style staleness-depth distribution. The process exits non-zero if any
// shipped scenario fails its bound, which is what makes it a CI gate
// (make chaos-short, make chaos-tcp).
//
// Usage:
//
//	pqs-chaos                      # full matrix, scale 1, seed 1, JSON to stdout
//	pqs-chaos -scale 5 -seed 7     # longer runs from another seed
//	pqs-chaos -scenario 'masking/' # subset by substring
//	pqs-chaos -list                # print scenario names and docs
//	pqs-chaos -transport tcp-virtual
//	                               # run the matrix over the REAL TCP stack
//	                               # (binary codec, group-commit flusher,
//	                               # worker pool) on virtual-time byte
//	                               # streams; comma-separate to run several
//	                               # planes in one invocation, e.g.
//	                               # -transport mem,tcp-virtual
//	pqs-chaos -verify-determinism  # run every scenario TWICE per transport
//	                               # and fail unless the histories replay
//	                               # byte-for-byte (the CI determinism gate)
//	pqs-chaos -json                # also write per-scenario ε metrics to
//	                               # BENCH_epsilon.json (the CI artifact
//	                               # tracking the ε trend across PRs, like
//	                               # BENCH_throughput.json), with one section
//	                               # per transport
//	pqs-chaos -negative            # also run the intentionally failing
//	                               # negative scenario (its failure is
//	                               # expected and does not affect the exit
//	                               # code; it demonstrates the checker)
//	pqs-chaos -load                # run the population-scale load matrix
//	                               # (internal/load's scale/ scenarios: 10k+
//	                               # clients against n>=1000 universes, over
//	                               # a million operations) instead of the
//	                               # chaos matrix; -seed, -scenario, -list,
//	                               # -negative, -verify-determinism (digest
//	                               # replay) and -json (per-scale-point
//	                               # BENCH_epsilon.json entries) compose
//	pqs-chaos -load -budget 5m     # fail unless the whole scale matrix
//	                               # (including the determinism re-runs)
//	                               # finishes inside the wall-clock budget —
//	                               # the CI guard keeping population-scale
//	                               # simulation CI-affordable (0 disables)
//
// Every run is deterministic in -seed: a failing seed from CI reproduces
// the identical history locally (see also: go test ./internal/chaos -run
// TestChaos -chaos.seed=N).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/load"
	"pqs/internal/sim"
)

// scenarioReport is one matrix entry of the JSON report.
type scenarioReport struct {
	chaos.Report
	// Expected distinguishes the negative demo (expected to fail) from
	// shipped scenarios (expected to pass).
	Expected string `json:"expected"`
	// WallSeconds is how long the scenario took to execute. For virtual
	// scenarios the interesting ratio is Report.SimSeconds/WallSeconds.
	WallSeconds float64 `json:"wall_seconds"`
	// Deterministic is set when -verify-determinism re-ran the scenario:
	// true means the second run's history replayed byte-for-byte.
	Deterministic *bool `json:"deterministic,omitempty"`
}

// epsilonDoc is the BENCH_epsilon.json layout, mirroring
// BENCH_throughput.json: a context block plus named entries with a flat
// metrics map, so the same tooling can diff either file across PRs.
// Entries carry their transport, giving the document one section per data
// plane when several run in one invocation.
type epsilonDoc struct {
	Context   map[string]any `json:"context"`
	Scenarios []epsilonEntry `json:"scenarios"`
}

type epsilonEntry struct {
	Name      string             `json:"name"`
	Transport string             `json:"transport"`
	Metrics   map[string]float64 `json:"metrics"`
}

// epsilonFile is where -json writes the ε trend document.
const epsilonFile = "BENCH_epsilon.json"

// buildEpsilonDoc flattens the matrix into the trend document.
func buildEpsilonDoc(rep matrixReport) epsilonDoc {
	doc := epsilonDoc{Context: map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"pkg":        "pqs",
		"seed":       rep.Seed,
		"scale":      rep.Scale,
		"transports": rep.Transports,
	}}
	for _, sc := range rep.Scenarios {
		if sc.Expected == "fail" {
			// The negative demo exists to prove the checker has teeth; a
			// permanently "failing" row would poison the trend document
			// (every cross-PR diff would flag it as a regression).
			continue
		}
		m := checkMetrics(sc.Check)
		m["wall_seconds"] = sc.WallSeconds
		if sc.Virtual {
			m["sim_seconds"] = sc.SimSeconds
			if sc.WallSeconds > 0 {
				m["speedup"] = sc.SimSeconds / sc.WallSeconds
			}
		}
		if sc.GossipRounds > 0 {
			m["gossip_rounds"] = float64(sc.GossipRounds)
			m["gossip_merged"] = float64(sc.GossipMerged)
		}
		if sc.Deterministic != nil {
			m["deterministic"] = boolMetric(*sc.Deterministic)
		}
		doc.Scenarios = append(doc.Scenarios, epsilonEntry{Name: sc.Name, Transport: sc.Transport, Metrics: m})
	}
	return doc
}

// checkMetrics flattens a checker verdict into trend-document metrics, the
// same keys for chaos scenarios and load scale points: ε against its bound,
// the eligible-read test, the timed verdict, the staleness depths, and one
// ε section per quorum cell. The checker enforces the theorem bound per
// cell (a hot cell fails the run even when the global average passes), so
// the document records each cell's measured ε to make a cell-local drift
// visible across PRs.
func checkMetrics(c chaos.CheckResult) map[string]float64 {
	m := map[string]float64{
		"epsilon":          c.Epsilon,
		"eligible_epsilon": c.EligibleEpsilon,
		"eligible_reads":   float64(c.EligibleReads),
		"eligible_bad":     float64(c.EligibleBad),
		"bound":            c.Bound,
		"p_value":          c.PValue,
		"pass":             boolMetric(c.Pass),
	}
	if c.Timed != nil {
		m["timed_p_value"] = c.Timed.PValue
		m["timed_max_bound"] = c.Timed.MaxBound
		m["timed_pass"] = boolMetric(c.Timed.Pass)
		m["timed_depth_buckets"] = float64(len(c.Timed.Groups))
	}
	for d, cnt := range c.StaleDepth {
		m[fmt.Sprintf("stale_depth_%d", d)] = float64(cnt)
	}
	for _, cell := range c.Cells {
		p := fmt.Sprintf("cell_%d_", cell.Cell)
		m[p+"epsilon"] = cell.EligibleEpsilon
		m[p+"eligible_reads"] = float64(cell.EligibleReads)
		m[p+"eligible_bad"] = float64(cell.EligibleBad)
		m[p+"p_value"] = cell.PValue
		m[p+"pass"] = boolMetric(cell.Pass)
	}
	return m
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// matrixReport is the top-level JSON document.
type matrixReport struct {
	Seed       int64            `json:"seed"`
	Scale      int              `json:"scale"`
	Transports []string         `json:"transports"`
	Scenarios  []scenarioReport `json:"scenarios"`
	AllPass    bool             `json:"all_pass"`
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "run seed (fixes every random choice)")
		scale     = flag.Int("scale", 1, "trial-count multiplier (1 is the CI short run)")
		match     = flag.String("scenario", "", "run only scenarios whose name contains this substring")
		list      = flag.Bool("list", false, "list scenario names and exit")
		negative  = flag.Bool("negative", false, "also run the intentionally failing negative scenario")
		out       = flag.String("o", "", "write the JSON report to this file instead of stdout")
		epsJSON   = flag.Bool("json", false, "also write per-scenario ε metrics to "+epsilonFile)
		transport = flag.String("transport", sim.TransportMem,
			"comma-separated data planes to run the matrix over: mem, tcp-virtual")
		verifyDet = flag.Bool("verify-determinism", false,
			"run each scenario twice and fail unless the histories replay byte-for-byte")
		loadMode = flag.Bool("load", false,
			"run the population-scale load matrix (internal/load) instead of the chaos matrix")
		budget = flag.Duration("budget", 0,
			"with -load: fail unless the whole matrix finishes inside this wall-clock budget (0 disables)")
		loadPar = flag.Int("load-parallel", 0,
			"with -load: scale points run concurrently on this many workers (0 = half the cores, capped at 4)")
	)
	flag.Parse()

	if *list {
		if *loadMode {
			for _, sc := range load.Scenarios() {
				fmt.Printf("%-28s %s\n", sc.Name, sc.Doc)
			}
			return
		}
		for _, sc := range chaos.Scenarios() {
			fmt.Printf("%-28s %s\n", sc.Name, sc.Doc)
		}
		return
	}

	if *loadMode {
		runLoadMatrix(*seed, *match, *negative, *verifyDet, *epsJSON, *out, *budget, *loadPar)
		return
	}

	var transports []string
	for _, tr := range strings.Split(*transport, ",") {
		tr = strings.TrimSpace(tr)
		if tr == "" {
			continue
		}
		if tr != sim.TransportMem && tr != sim.TransportTCPVirtual {
			fatalf("unknown transport %q (want %s or %s)", tr, sim.TransportMem, sim.TransportTCPVirtual)
		}
		transports = append(transports, tr)
	}
	if len(transports) == 0 {
		fatalf("no transport selected")
	}

	report := matrixReport{Seed: *seed, Scale: *scale, Transports: transports, AllPass: true}
	ran := 0
	for _, tr := range transports {
		for _, sc := range chaos.Scenarios() {
			if *match != "" && !strings.Contains(sc.Name, *match) {
				continue
			}
			ran++
			cfg, err := sc.Build(*scale, *seed)
			if err != nil {
				fatalf("build %s: %v", sc.Name, err)
			}
			cfg.Transport = tr
			start := time.Now()
			rep, err := chaos.Run(cfg)
			wall := time.Since(start).Seconds()
			if err != nil {
				fatalf("run %s [%s]: %v", sc.Name, tr, err)
			}
			entry := scenarioReport{Report: *rep, Expected: "pass", WallSeconds: wall}
			status := "PASS"
			if !rep.Check.Pass {
				status = "FAIL"
				report.AllPass = false
			}
			if *verifyDet {
				cfg2, err := sc.Build(*scale, *seed)
				if err != nil {
					fatalf("rebuild %s: %v", sc.Name, err)
				}
				cfg2.Transport = tr
				rep2, err := chaos.Run(cfg2)
				if err != nil {
					fatalf("replay %s [%s]: %v", sc.Name, tr, err)
				}
				det := rep.History.Diff(rep2.History) == ""
				entry.Deterministic = &det
				if !det {
					status = "NONDETERMINISTIC"
					report.AllPass = false
					fmt.Fprintf(os.Stderr, "determinism violation in %s [%s]:\n%s\n",
						sc.Name, tr, rep.History.Diff(rep2.History))
				}
			}
			report.Scenarios = append(report.Scenarios, entry)
			virtual := ""
			if rep.Virtual {
				virtual = fmt.Sprintf("  [virtual: %.1fs simulated in %.2fs]", rep.SimSeconds, wall)
			}
			cells := ""
			if n := len(rep.Check.Cells); n > 0 {
				worst := rep.Check.Cells[0]
				for _, c := range rep.Check.Cells[1:] {
					if c.EligibleEpsilon > worst.EligibleEpsilon {
						worst = c
					}
				}
				cells = fmt.Sprintf("  [%d cells; worst cell %d ε=%.5f p=%.3g]",
					n, worst.Cell, worst.EligibleEpsilon, worst.PValue)
			}
			fmt.Fprintf(os.Stderr, "%-28s %-11s %s  ε=%.5f (eligible %d/%d) bound=%.3g p=%.3g%s%s\n",
				sc.Name, tr, status, rep.Check.EligibleEpsilon, rep.Check.EligibleBad,
				rep.Check.EligibleReads, rep.Check.Bound, rep.Check.PValue, cells, virtual)
		}
	}
	if ran == 0 {
		fatalf("no scenario matches %q", *match)
	}

	if *negative {
		for _, tr := range transports {
			cfg, err := chaos.NegativeConfig(*scale, *seed)
			if err != nil {
				fatalf("build negative: %v", err)
			}
			cfg.Transport = tr
			start := time.Now()
			rep, err := chaos.Run(cfg)
			wall := time.Since(start).Seconds()
			if err != nil {
				fatalf("run negative [%s]: %v", tr, err)
			}
			report.Scenarios = append(report.Scenarios, scenarioReport{Report: *rep, Expected: "fail", WallSeconds: wall})
			fmt.Fprintf(os.Stderr, "%-28s %-11s %s  ε=%.5f vs configured bound %.3g (failure expected)\n",
				rep.Name, tr, map[bool]string{true: "PASS(?)", false: "FAIL(expected)"}[rep.Check.Pass],
				rep.Check.EligibleEpsilon, rep.Check.Bound)
			if rep.Check.Pass {
				// The demo exists to show the checker has teeth; it passing is
				// a harness regression.
				report.AllPass = false
			}
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
	} else {
		os.Stdout.Write(enc)
	}
	if *epsJSON {
		doc := buildEpsilonDoc(report)
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("marshal %s: %v", epsilonFile, err)
		}
		enc = append(enc, '\n')
		if err := os.WriteFile(epsilonFile, enc, 0o644); err != nil {
			fatalf("write %s: %v", epsilonFile, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", epsilonFile, len(doc.Scenarios))
	}
	if !report.AllPass {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pqs-chaos: "+format+"\n", args...)
	os.Exit(1)
}

// loadScenarioReport is one scale point of the -load JSON report.
type loadScenarioReport struct {
	load.Result
	Expected    string  `json:"expected"`
	WallSeconds float64 `json:"wall_seconds"`
	// Deterministic is set by -verify-determinism: true means the replay
	// produced an identical Result (digest included).
	Deterministic *bool `json:"deterministic,omitempty"`
}

// loadMatrixReport is the -load top-level JSON document.
type loadMatrixReport struct {
	Seed          int64                `json:"seed"`
	BudgetSeconds float64              `json:"budget_seconds,omitempty"`
	WallSeconds   float64              `json:"wall_seconds"`
	Scenarios     []loadScenarioReport `json:"scenarios"`
	AllPass       bool                 `json:"all_pass"`
}

// loadJob is one pool entry of the -load matrix: a scale point or the
// negative configuration.
type loadJob struct {
	name       string
	build      func() (load.Config, error)
	expectFail bool
}

// runLoadJob executes one scale point (twice under verifyDet, comparing
// full Results) and returns its report entry plus the replay digest when a
// determinism violation was detected.
func runLoadJob(job loadJob, verifyDet bool) (loadScenarioReport, string, error) {
	cfg, err := job.build()
	if err != nil {
		return loadScenarioReport{}, "", fmt.Errorf("build: %w", err)
	}
	start := time.Now()
	res, err := load.Run(cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		return loadScenarioReport{}, "", fmt.Errorf("run: %w", err)
	}
	expected := "pass"
	if job.expectFail {
		expected = "fail"
	}
	entry := loadScenarioReport{Result: *res, Expected: expected, WallSeconds: wall}
	if verifyDet {
		cfg2, err := job.build()
		if err != nil {
			return loadScenarioReport{}, "", fmt.Errorf("rebuild: %w", err)
		}
		res2, err := load.Run(cfg2)
		if err != nil {
			return loadScenarioReport{}, "", fmt.Errorf("replay: %w", err)
		}
		det := reflect.DeepEqual(res, res2)
		entry.Deterministic = &det
		if !det {
			return entry, res2.Digest, nil
		}
	}
	return entry, "", nil
}

// runLoadMatrix executes the scale/ matrix: every point runs (twice under
// verifyDet, comparing full Results), the budget gate is enforced over the
// whole invocation, and -json writes one BENCH_epsilon.json entry per
// scale point. The points are independent — each owns its SimClock and
// cluster — so they run on a bounded worker pool (parallel; 0 picks half
// the cores, capped at 4); results are collected and printed in matrix
// order, so everything but the wall timings stays deterministic.
func runLoadMatrix(seed int64, match string, negative, verifyDet, epsJSON bool, out string, budget time.Duration, parallel int) {
	var jobs []loadJob
	for _, sc := range load.Scenarios() {
		if match != "" && !strings.Contains(sc.Name, match) {
			continue
		}
		build := sc.Build
		jobs = append(jobs, loadJob{name: sc.Name, build: func() (load.Config, error) { return build(seed) }})
	}
	if len(jobs) == 0 {
		fatalf("no scale scenario matches %q", match)
	}
	if negative {
		jobs = append(jobs, loadJob{
			name:       "negative/view-blind",
			build:      func() (load.Config, error) { return load.NegativeConfig(seed) },
			expectFail: true,
		})
	}
	if parallel <= 0 {
		// Auto: half the cores, capped — a point is one SimClock worker
		// plus GC, so a 4-vCPU CI runner fits two side by side.
		parallel = runtime.NumCPU() / 2
	}
	if parallel < 1 {
		parallel = 1
	}
	if parallel > 4 {
		parallel = 4
	}

	report := loadMatrixReport{Seed: seed, BudgetSeconds: budget.Seconds(), AllPass: true}
	matrixStart := time.Now()

	entries := make([]loadScenarioReport, len(jobs))
	replays := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	done := make([]chan struct{}, len(jobs))
	sem := make(chan struct{}, parallel)
	for i := range jobs {
		done[i] = make(chan struct{})
	}
	for i := range jobs {
		i := i
		go func() {
			sem <- struct{}{}
			defer func() { <-sem; close(done[i]) }()
			// The negative run is an expected failure, not a replay
			// subject; verifying it would double its cost for no signal.
			entries[i], replays[i], errs[i] = runLoadJob(jobs[i], verifyDet && !jobs[i].expectFail)
		}()
	}

	for i, job := range jobs {
		<-done[i]
		if errs[i] != nil {
			fatalf("%s: %v", job.name, errs[i])
		}
		entry := entries[i]
		res := entry.Result
		report.Scenarios = append(report.Scenarios, entry)
		if job.expectFail {
			fmt.Fprintf(os.Stderr, "%-18s %-16s %s  ε=%.5f vs bound %.3g (failure expected)\n",
				res.Name, res.Transport,
				map[bool]string{true: "PASS(?)", false: "FAIL(expected)"}[res.Pass],
				res.Epsilon, res.Bound)
			if res.Pass {
				report.AllPass = false
			}
			continue
		}
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
			report.AllPass = false
		}
		if entry.Deterministic != nil && !*entry.Deterministic {
			status = "NONDETERMINISTIC"
			report.AllPass = false
			fmt.Fprintf(os.Stderr, "determinism violation in %s: digests %s vs %s\n",
				job.name, res.Digest, replays[i])
		}
		timed := ""
		if res.Timed != nil {
			timed = fmt.Sprintf("  [timed: %d depth buckets, max bound %.3g, p=%.3g; %d departures]",
				len(res.Timed.Groups), res.Timed.MaxBound, res.Timed.PValue, res.Departures)
		}
		fmt.Fprintf(os.Stderr, "%-18s %-16s %s  n=%d clients=%d ops=%d ε=%.5f bound=%.3g p=%.3g p50=%.2fms p99=%.2fms p999=%.2fms [%.1fs sim in %.1fs]%s\n",
			job.name, res.Transport, status, res.N, res.Clients, res.Ops, res.Epsilon,
			res.Bound, res.PValue, res.P50Ms, res.P99Ms, res.P999Ms, res.SimSeconds, entry.WallSeconds, timed)
	}

	report.WallSeconds = time.Since(matrixStart).Seconds()
	if budget > 0 && report.WallSeconds > budget.Seconds() {
		fmt.Fprintf(os.Stderr, "pqs-chaos: load matrix blew its wall-clock budget: %.1fs > %s\n",
			report.WallSeconds, budget)
		report.AllPass = false
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	enc = append(enc, '\n')
	if out != "" {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fatalf("write %s: %v", out, err)
		}
	} else {
		os.Stdout.Write(enc)
	}
	if epsJSON {
		doc := buildLoadEpsilonDoc(report)
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("marshal %s: %v", epsilonFile, err)
		}
		enc = append(enc, '\n')
		if err := os.WriteFile(epsilonFile, enc, 0o644); err != nil {
			fatalf("write %s: %v", epsilonFile, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d scale points)\n", epsilonFile, len(doc.Scenarios))
	}
	if !report.AllPass {
		os.Exit(1)
	}
}

// buildLoadEpsilonDoc flattens the scale matrix into the same trend-doc
// layout the chaos matrix uses, one entry per scale point: the checker
// metrics, the shape of the point, and the tail.
func buildLoadEpsilonDoc(rep loadMatrixReport) epsilonDoc {
	doc := epsilonDoc{Context: map[string]any{
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		"pkg":    "pqs",
		"mode":   "load",
		"seed":   rep.Seed,
	}}
	for _, sc := range rep.Scenarios {
		if sc.Expected == "fail" {
			continue
		}
		m := checkMetrics(sc.CheckResult)
		m["n"] = float64(sc.N)
		m["q"] = float64(sc.Q)
		m["clients"] = float64(sc.Clients)
		m["ops"] = float64(sc.Ops)
		m["reads"] = float64(sc.Reads)
		m["stale"] = float64(sc.Stale)
		m["sim_seconds"] = sc.SimSeconds
		m["wall_seconds"] = sc.WallSeconds
		if sc.LatencyOps > 0 {
			m["p50_ms"] = sc.P50Ms
			m["p99_ms"] = sc.P99Ms
			m["p999_ms"] = sc.P999Ms
		}
		if sc.Departures > 0 {
			m["departures"] = float64(sc.Departures)
		}
		if sc.Deterministic != nil {
			m["deterministic"] = boolMetric(*sc.Deterministic)
		}
		doc.Scenarios = append(doc.Scenarios, epsilonEntry{Name: sc.Name, Transport: sc.Transport, Metrics: m})
	}
	return doc
}
