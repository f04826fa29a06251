// Command benchmark is the repository's benchmark: six named workloads, each
// verified against a sequential reference, measured end to end with tracing
// off and layer by layer in a second, traced pass. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    string // "0": untraced window only, "1": traced pass only, "": both
	quick    bool
	out      string
	traceOut string
	runs     int
}

func main() {
	var cfg config
	var compare, selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the benchmark-owned input generators")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window of each workload")
	flag.StringVar(&cfg.trace, "trace", "", "0: untraced window only (end-to-end metrics); 1: traced pass only (per-layer metrics); unset: both")
	flag.BoolVar(&cfg.quick, "quick", false, "one repetition per workload at tiny sizes: a smoke test, not a measurement")
	flag.StringVar(&cfg.out, "out", "", "write the results JSON here (with -selfcheck: a prefix, default .bench_build/selfcheck)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass as Chrome trace-event JSON here")
	flag.BoolVar(&compare, "compare", false, "compare two results files: benchmark -compare a.json b.json")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two sets of -runs runs per workload of this binary and compare them")
	flag.IntVar(&cfg.runs, "runs", 10, "runs per workload and set under -selfcheck, each with another seed")
	flag.Parse()

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: benchmark -compare a.json b.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case selfcheck:
		err = runSelfcheck(cfg)
	default:
		err = runBenchmark(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloadDefs, nil
	}
	for _, d := range workloadDefs {
		if d.name == name {
			return []workloadDef{d}, nil
		}
	}
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, or all)", name, strings.Join(names, ", "))
}

// scratch makes the directory every store and temporary file of this process
// lives in: inside the working directory, because the benchmark may write
// nowhere else.
func scratch() (string, func(), error) {
	root := ".bench_build"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "tmp-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// runBenchmark runs the selected workloads once each and prints them. The
// last line of out is one JSON object: the driver's four keys when a single
// workload and pass were asked for, a summary of all of them otherwise.
func runBenchmark(cfg config, out io.Writer) error {
	if cfg.trace != "" && cfg.trace != "0" && cfg.trace != "1" {
		return fmt.Errorf("-trace is 0 or 1, not %q", cfg.trace)
	}
	defs, err := selectWorkloads(cfg.workload)
	if err != nil {
		return err
	}
	tmp, cleanup, err := scratch()
	if err != nil {
		return err
	}
	defer cleanup()
	var chrome *chromeTrace
	if cfg.traceOut != "" {
		chrome = &chromeTrace{}
	}
	doc := newFileDoc(cfg)
	for i, def := range defs {
		r, err := runWorkload(def, cfg, tmp, chrome, i)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		rd := document(r, cfg)
		printRun(out, r, rd)
		doc.Runs = append(doc.Runs, rd)
	}
	if chrome != nil {
		if err := chrome.write(cfg.traceOut); err != nil {
			return err
		}
	}
	if cfg.out != "" {
		if err := doc.write(cfg.out); err != nil {
			return err
		}
	}
	if err := printLastLine(out, doc, cfg); err != nil {
		return err
	}
	for _, rd := range doc.Runs {
		if rd.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed verification: %s", rd.Workload, rd.Failed, rd.Attempted, strings.Join(rd.Failures, "; "))
		}
	}
	return nil
}

const (
	minUntracedReps = 15
	minTracedReps   = 5
	setupsPerRun    = 3
)

// spinCPUs keeps every processor busy for d. This VM wakes a sleeping vCPU in
// one of two ways, some 30 us apart, and which one it uses depends on how busy
// both vCPUs were in the last seconds: after a pause, sor-smallgrid-smp (two
// thread wake-ups per 60 us of kernel) runs 30 % slower for as long as it
// runs; after a burst on both it runs fast, and its own load then keeps it
// there. Every run starts with that burst, so that all runs are measured in
// the same state whatever ran, or did not run, before them.
func spinCPUs(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := time.Now(); time.Since(t) < d; {
			}
		}()
	}
	wg.Wait()
}

// runWorkload sets one workload up, measures its untraced window, then runs
// the traced pass and the probes.
func runWorkload(def workloadDef, cfg config, tmp string, chrome *chromeTrace, pid int) (*result, error) {
	r := &result{def: def, seed: cfg.seed, u: newWindow(), t: newWindow(), p: newWindow()}
	doU, doT := cfg.trace != "1", cfg.trace != "0"
	minU, minT, setups := minUntracedReps, minTracedReps, setupsPerRun
	if cfg.quick {
		minU, minT, setups = 1, 1, 1
	}
	if !doU {
		setups = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}

	if !cfg.quick {
		spinCPUs(500 * time.Millisecond)
	}

	// Set-up, several times over so that setup_s is a median: inputs and
	// references, stores, untimed legs, and one warm-up repetition that
	// leaves the compiled field accessors and the sync.Pools hot.
	var inst instance
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		inst, err = def.setup(&env{seed: cfg.seed, quick: cfg.quick, tmp: tmp, traced: doT})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := newWindow()
		inst.rep(warm, false)
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up repetition: %s", strings.Join(warm.failures, "; "))
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	r.sizes = inst.describe()

	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.quick {
		budget = 0
	}
	if doU {
		for start, n := time.Now(), 0; n < minU || time.Since(start) < budget; n++ {
			inst.rep(r.u, false)
		}
		budget = 0 // with a window of its own, the traced pass is short
	}
	if doT {
		// Traced repetitions, interleaved with untraced ones when this run
		// has no untraced window of its own to compare them with.
		base := time.Duration(0)
		for start, n := time.Now(), 0; n < minT || time.Since(start) < budget; n++ {
			if !doU {
				inst.rep(r.u, false)
			}
			rec := inst.rep(r.t, true)
			if n < minTracedReps {
				chrome.add(def.name, pid, n, base, rec.spans)
				if len(rec.spans) > 0 {
					base += time.Duration(rec.spans[len(rec.spans)-1].end) + time.Millisecond
				}
			}
		}
		inst.probes(r.p)
		coreProbes(r.p, cfg.quick)
		teamProbes(r.p, cfg.quick)
		mpProbes(r.p, cfg.quick)
	}
	return r, nil
}

// --- results document -------------------------------------------------------

type provenance struct {
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	Trace      string `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// LoadShape: there is no open-loop generator in this benchmark, hence no
	// lateness to report.
	LoadShape string `json:"load_shape"`
	When      string `json:"when"`
}

type attrRow struct {
	Part  string  `json:"part"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Instrumentation the traced pass added itself: listed, not summed.
	Extra bool `json:"extra,omitempty"`
}

type attribution struct {
	Target      string    `json:"target"`
	TargetValue float64   `json:"target_value"`
	Unit        string    `json:"unit"`
	Parts       []attrRow `json:"parts"`
	Sum         float64   `json:"sum"`
	ResidualPct float64   `json:"residual_pct"`
	Flagged     bool      `json:"flagged"` // residual beyond 15 % of the target
	CrossCheck  string    `json:"cross_check,omitempty"`
}

type runDoc struct {
	Workload       string              `json:"workload"`
	Why            string              `json:"why"`
	Seed           uint64              `json:"seed"`
	Sizes          map[string]any      `json:"sizes"`
	Attempted      int                 `json:"attempted"`
	Failed         int                 `json:"failed"`
	VerifyFailFrac float64             `json:"verify_fail_frac"`
	Failures       []string            `json:"failures,omitempty"`
	EndToEnd       map[string]reported `json:"end_to_end,omitempty"`
	PerLayer       map[string]reported `json:"per_layer,omitempty"`
	Attribution    []attribution       `json:"attribution,omitempty"`
}

type fileDoc struct {
	Provenance provenance `json:"provenance"`
	// Definitions says what each metric name measures.
	Definitions map[string]string `json:"definitions"`
	Runs        []runDoc          `json:"runs"`
	// Claim is always null: a run of the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newFileDoc(cfg config) *fileDoc {
	defs := map[string]string{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		defs[m.name] = m.doc
	}
	return &fileDoc{Definitions: defs, Provenance: provenance{
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		LoadShape: "closed loop: one engine run at a time (fleet-mix: 2 clients, each submitting its next job when the last is done); no open-loop generator, so no lateness",
		When:      time.Now().UTC().Format(time.RFC3339),
	}}
}

func (d *fileDoc) write(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// document turns a result into its stored form.
func document(r *result, cfg config) runDoc {
	rd := runDoc{Workload: r.def.name, Why: r.def.why, Seed: r.seed, Sizes: r.sizes}
	for _, w := range []*window{r.u, r.t} {
		rd.Attempted += w.attempted
		rd.Failed += w.failed
		rd.Failures = append(rd.Failures, w.failures...)
	}
	if rd.Attempted > 0 {
		rd.VerifyFailFrac = float64(rd.Failed) / float64(rd.Attempted)
	}
	if cfg.trace != "1" {
		rd.EndToEnd = evaluate(allEndToEnd(), r)
	}
	if cfg.trace != "0" {
		rd.PerLayer = evaluate(perLayer, r)
		rd.Attribution = attribute(r, rd.PerLayer)
	}
	return rd
}

// attribute lays the traced layer self-times beside the end-to-end number
// they should sum to. The end-to-end side comes from untraced repetitions, so
// the residual is what tracing distorts plus what no span covers.
func attribute(r *result, layer map[string]reported) []attribution {
	var out []attribution
	finish := func(a attribution) {
		for _, p := range a.Parts {
			if !p.Extra {
				a.Sum += p.Value
			}
		}
		if a.TargetValue != 0 {
			a.ResidualPct = 100 * (a.TargetValue - a.Sum) / a.TargetValue
		}
		a.Flagged = a.ResidualPct > 15 || a.ResidualPct < -15
		out = append(out, a)
	}

	// Per repetition: every span that holds the master line, by class.
	if run, n := med("run_s", untraced)(r); n > 0 {
		a := attribution{Target: "run_s", TargetValue: run * 1e3, Unit: "ms"}
		for _, c := range []struct {
			series, part string
			extra        bool
		}{
			{"attr.body_ms", "jgf: loop bodies on the master line", false},
			{"attr.for_ms", "core/team: pp.ForSpan self (schedule + loop barrier)", false},
			{"attr.call_ms", "core: advised calls self (dispatch, halo exchange, scatter/gather advice)", false},
			{"attr.sp_idle_ms", "core: idle safe points", false},
			{"attr.sp_ckpt_ms", "core: checkpointing safe points self (barrier + gather + capture)", false},
			{"attr.sp_replay_ms", "core: replayed safe points (incl. load at the target)", false},
			{"attr.ckpt_ms", "ckpt: store calls on the master line", false},
			{"attr.main_ms", "core: Main outside advised calls", false},
			{"attr.launch_ms", "core: engine launch, teardown and async drain (run minus Main)", false},
			{"attr.bench_ms", "benchmark: in-situ encode (instrumentation, not summed)", true},
		} {
			if v, n := of(r.t, c.series, median); n > 0 {
				a.Parts = append(a.Parts, attrRow{c.part, v, "ms", c.extra})
			}
		}
		if len(a.Parts) > 0 {
			if t, n := of(r.t, "run_s", median); n > 0 {
				a.CrossCheck = fmt.Sprintf("traced run_s %.3f ms", t*1e3)
			}
			finish(a)
		}
	}

	// Per checkpointing safe point.
	if blocked, n := med("ckpt_blocked_ms", untraced)(r); n > 0 {
		a := attribution{Target: "ckpt_blocked_ms", TargetValue: blocked, Unit: "ms"}
		if v, ok := layer["core.safepoint_ckpt_self_ms"]; ok {
			a.Parts = append(a.Parts, attrRow{Part: "core.safepoint_ckpt_self_ms", Value: v.Value, Unit: "ms"})
		}
		save, hasSave := layer["ckpt.save_ms"]
		persist, hasPersist := layer["ckpt.persist_self_ms"]
		_, async := layer["core.report_async_save_ms"]
		switch {
		case async:
			// The save runs behind the master line; only the capture blocks.
		case hasSave && hasPersist:
			a.Parts = append(a.Parts,
				attrRow{Part: "serial: encode (in-situ estimate = ckpt.save_ms - ckpt.persist_self_ms)", Value: save.Value - persist.Value, Unit: "ms"},
				attrRow{Part: "ckpt.persist_self_ms", Value: persist.Value, Unit: "ms"})
		case hasSave:
			a.Parts = append(a.Parts, attrRow{Part: "ckpt.save_ms", Value: save.Value, Unit: "ms"})
		}
		if total, ok := layer["core.report_save_total_ms"]; ok {
			perRun := float64(len(r.u.get("ckpt_blocked_ms"))) / float64(max(1, len(r.u.get("run_s"))))
			a.CrossCheck = fmt.Sprintf("core.report_save_total_ms / %.0f checkpointing safe points = %.3f ms", perRun, total.Value/perRun)
		}
		if len(a.Parts) > 0 {
			finish(a)
		}
	}
	return out
}

// --- printing ---------------------------------------------------------------

func printMetrics(out io.Writer, ms []metric, vals map[string]reported) {
	for _, m := range ms {
		v, ok := vals[m.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-8s n=%d", m.name, v.Value, v.Unit, v.N)
		if v.TailPct > 0 {
			line += fmt.Sprintf("  p%d=%.6g", v.TailPct, v.Tail)
		}
		if m.bound > 0 {
			line += fmt.Sprintf("  bound=%g", m.bound)
		}
		fmt.Fprintln(out, line)
	}
}

func printRun(out io.Writer, r *result, rd runDoc) {
	fmt.Fprintf(out, "== %s (seed %d)\n   %s\n", rd.Workload, rd.Seed, rd.Why)
	fmt.Fprintf(out, "  %-34s %14d          failed=%d verify_fail_frac=%g\n", "attempted", rd.Attempted, rd.Failed, rd.VerifyFailFrac)
	if rd.EndToEnd != nil {
		fmt.Fprintln(out, " end to end (untraced window):")
		printMetrics(out, allEndToEnd(), rd.EndToEnd)
	}
	if rd.PerLayer != nil {
		fmt.Fprintln(out, " per layer (traced pass and probes):")
		printMetrics(out, perLayer, rd.PerLayer)
	}
	for _, a := range rd.Attribution {
		fmt.Fprintf(out, " attribution of %s = %.4g %s (untraced median):\n", a.Target, a.TargetValue, a.Unit)
		for _, p := range a.Parts {
			fmt.Fprintf(out, "  %-80s %12.4f %s\n", p.Part, p.Value, p.Unit)
		}
		flag := ""
		if a.Flagged {
			flag = "  ** beyond 15 % **"
		}
		fmt.Fprintf(out, "  %-80s %12.4f %s  residual %.1f %%%s\n", "sum", a.Sum, a.Unit, a.ResidualPct, flag)
		if a.CrossCheck != "" {
			fmt.Fprintf(out, "  cross-check: %s\n", a.CrossCheck)
		}
	}
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printLastLine prints the machine-readable last line. For one workload and
// one pass it is the driver's object with exactly four keys, carrying every
// end-to-end metric (-trace 0) or every per-layer metric (-trace 1); a
// per-layer metric that does not exist on the workload reads 0 there, since
// the driver wants every name on every workload.
func printLastLine(out io.Writer, doc *fileDoc, cfg config) error {
	if len(doc.Runs) == 1 && cfg.trace != "" {
		rd := doc.Runs[0]
		ms, vals := endToEnd, rd.EndToEnd
		if cfg.trace == "1" {
			ms, vals = perLayer, rd.PerLayer
		}
		metrics := map[string]driverValue{}
		for _, m := range ms {
			metrics[m.name] = driverValue{vals[m.name].Value, m.unit}
		}
		line, err := json.Marshal(map[string]any{
			"correct": rd.Failed == 0, "attempted": rd.Attempted, "failed": rd.Failed, "metrics": metrics,
		})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(line))
		return err
	}
	type summary struct {
		Correct   bool                           `json:"correct"`
		Attempted int                            `json:"attempted"`
		Failed    int                            `json:"failed"`
		Workloads map[string]map[string]reported `json:"workloads"`
		Claim     *string                        `json:"claim"`
	}
	s := summary{Correct: true, Workloads: map[string]map[string]reported{}}
	for _, rd := range doc.Runs {
		s.Attempted += rd.Attempted
		s.Failed += rd.Failed
		all := map[string]reported{}
		for k, v := range rd.EndToEnd {
			all[k] = v
		}
		for k, v := range rd.PerLayer {
			all[k] = v
		}
		s.Workloads[rd.Workload] = all
	}
	s.Correct = s.Failed == 0
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// --- comparing two sets of runs ---------------------------------------------

func loadDoc(path string) (*fileDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d fileDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// sideValues collects one metric's values over a file's runs of a workload.
func sideValues(d *fileDoc, workload, name string) []float64 {
	var v []float64
	for _, rd := range d.Runs {
		if rd.Workload != workload {
			continue
		}
		if m, ok := rd.EndToEnd[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareDocs prints one row per workload × end-to-end metric: both medians
// and quartiles, the change against the bound, and a verdict. unresolved
// means a side's own runs spread wider than the bound, so the row can show
// neither a regression nor its absence. It returns the regressed rows.
func compareDocs(out io.Writer, a, b *fileDoc) (regressed, unresolved int) {
	ms := allEndToEnd()
	fmt.Fprintf(out, "%-26s %-22s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "a median", "a q1..q3 (spread)", "b median", "b q1..q3 (spread)", "worse%", "bound%", "verdict")
	for _, def := range workloadDefs {
		for _, m := range ms {
			va, vb := sideValues(a, def.name, m.name), sideValues(b, def.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			side := func(v []float64) string {
				if len(v) < 2 {
					return "(one run)"
				}
				q1, _, q3 := quartiles(v)
				return fmt.Sprintf("%.4g..%.4g (%.1f%%)", q1, q3, 100*spread(v))
			}
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if m.better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			// setup_s is exempt from the spread rule, as in the driver.
			case m.name != "setup_s" && (spread(va) > m.bound || spread(vb) > m.bound):
				verdict = "unresolved"
				unresolved++
			case worse > m.bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(out, "%-26s %-22s %12.5g %25s %12.5g %25s %+8.1f %6.0f  %s\n",
				def.name, m.name, ma, side(va), mb, side(vb), 100*worse, 100*m.bound, verdict)
		}
	}
	return regressed, unresolved
}

func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := loadDoc(pathA)
	if err != nil {
		return err
	}
	b, err := loadDoc(pathB)
	if err != nil {
		return err
	}
	regressed, unresolved := compareDocs(out, a, b)
	fmt.Fprintf(out, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 || unresolved > 0 {
		return fmt.Errorf("%d rows regressed, %d unresolved", regressed, unresolved)
	}
	return nil
}

// exactCounts are the counts that must read the same in both sets of a
// selfcheck, whose traced passes share one seed.
var exactCounts = []string{"ckpt_bytes_per_save", "mp.msgs_per_sp", "mp.bytes_per_sp", "team.task_chunks_per_run"}

// child runs this binary once more, the way the driver runs it, and returns
// what it measured.
func child(exe, tmp string, def workloadDef, cfg config, trace string) (runDoc, error) {
	out := filepath.Join(tmp, "child.json")
	cmd := exec.Command(exe, "--workload", def.name, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace, "--out", out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runDoc{}, fmt.Errorf("%s seed %d trace %s: %w", def.name, cfg.seed, trace, err)
	}
	doc, err := loadDoc(out)
	if err != nil {
		return runDoc{}, err
	}
	if len(doc.Runs) != 1 {
		return runDoc{}, fmt.Errorf("%s: %d runs in the child's results, want 1", out, len(doc.Runs))
	}
	return doc.Runs[0], nil
}

// runSelfcheck measures this binary against itself as the driver does: two
// sets of cfg.runs untraced runs per workload, each run a process of its own
// with another seed, compared under the benchmark's own bounds; and one
// traced run per workload and set, on one seed, whose exact counts must
// agree. It is the two-sets acceptance test: identical code must not read as
// a regression, and no metric may be too noisy to resolve.
func runSelfcheck(cfg config) error {
	defs, err := selectWorkloads(cfg.workload)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, cleanup, err := scratch()
	if err != nil {
		return err
	}
	defer cleanup()
	prefix := cfg.out
	if prefix == "" {
		prefix = filepath.Join(".bench_build", "selfcheck")
	}
	var docs [2]*fileDoc
	traced := [2]map[string]runDoc{{}, {}}
	for set := range docs {
		docs[set] = newFileDoc(cfg)
		for _, def := range defs {
			for i := 0; i < cfg.runs; i++ {
				run := cfg
				run.seed = cfg.seed + uint64(set*cfg.runs+i)
				rd, err := child(exe, tmp, def, run, "0")
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "set %c %s seed %d: run_s %.5g\n", 'a'+set, def.name, run.seed, rd.EndToEnd["run_s"].Value)
				docs[set].Runs = append(docs[set].Runs, rd)
			}
			rd, err := child(exe, tmp, def, cfg, "1")
			if err != nil {
				return err
			}
			traced[set][def.name] = rd
			docs[set].Runs = append(docs[set].Runs, rd)
		}
		if err := docs[set].write(fmt.Sprintf("%s-%c.json", prefix, 'a'+set)); err != nil {
			return err
		}
	}
	regressed, unresolved := compareDocs(os.Stdout, docs[0], docs[1])
	inexact := 0
	for _, def := range defs {
		a, b := traced[0][def.name].PerLayer, traced[1][def.name].PerLayer
		for _, name := range exactCounts {
			va, ok := a[name]
			if !ok {
				continue
			}
			verdict := "exact"
			if vb := b[name]; va.Value != vb.Value {
				verdict = "DIFFERS"
				inexact++
			}
			fmt.Printf("%-26s %-26s %14.6g %14.6g  %s\n", def.name, name, va.Value, b[name].Value, verdict)
		}
	}
	fmt.Printf("%d regressed, %d unresolved, %d counts differ\n", regressed, unresolved, inexact)
	if regressed+unresolved+inexact > 0 {
		return fmt.Errorf("selfcheck: %d rows regressed, %d unresolved, %d counts differ", regressed, unresolved, inexact)
	}
	return nil
}
