package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// wantSpec is BENCHMARK.json as the program's own tables define it.
func wantSpec() benchmarkJSON {
	want := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
	}
	for _, d := range workloadDefs {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{d.name, d.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		want.EndToEnd = append(want.EndToEnd, specMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, specMetric{m.name, m.unit, m.better, nil})
	}
	return want
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables the same
// list: a metric or workload renamed in one place only fails here, with the
// document the tables call for printed in full.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v\nthe tables call for:\n%s", err, want)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	have, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; they call for:\n%s", want)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range append(got.EndToEnd, got.PerLayer...) {
		check(m.Name)
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range got.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

// onlyOn lists the workloads a workload-specific end-to-end metric exists
// on; everywhere else it must be absent, not zero.
var onlyOn = map[string][]string{
	"ckpt_blocked_ms":     {"sor-smallgrid-smp", "sor-gather-fs-sync", "stripe-delta-async-dedup"},
	"ckpt_blocked_p95_ms": {"stripe-delta-async-dedup"}, // the others take too few checkpoints in -quick
	"ckpt_bytes_per_save": {"sor-smallgrid-smp", "sor-gather-fs-sync", "sor-restart-reshape"},
	"restart_s":           {"sor-restart-reshape"},
	"migrate_s":           {"sor-restart-reshape"},
	"jobs_per_s":          {"fleet-mix"},
	"job_p50_ms":          {"fleet-mix"},
	"job_p95_ms":          {"fleet-mix"},
}

// TestQuick runs every workload once at tiny sizes, both passes, and checks
// the shape of what comes out: every workload and every metric BENCHMARK.json
// names is emitted, with a unit, and inapplicable cells are absent.
func TestQuick(t *testing.T) {
	var out bytes.Buffer
	if err := runBenchmark(config{workload: "all", seed: 7, quick: true}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, `"claim":null}`) {
		t.Errorf("the summary must end with \"claim\": null, ends %q", last[max(0, len(last)-40):])
	}
	var sum struct {
		Correct   bool
		Attempted int
		Failed    int
		Workloads map[string]map[string]reported
	}
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < len(workloadDefs) {
		t.Errorf("correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	emitted := map[string]bool{}
	for _, d := range workloadDefs {
		ms, ok := sum.Workloads[d.name]
		if !ok {
			t.Errorf("workload %s is missing from the output", d.name)
			continue
		}
		for name, v := range ms {
			emitted[name] = true
			if !nameRe.MatchString(name) || v.Unit == "" || v.N == 0 {
				t.Errorf("%s/%s: name, unit %q or sample count %d malformed", d.name, name, v.Unit, v.N)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s/%s = %v", d.name, name, v.Value)
			}
		}
		for _, m := range endToEnd {
			if v, ok := ms[m.name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s must be reported and never 0, got %v", d.name, m.name, v.Value)
			}
		}
		for name, where := range onlyOn {
			_, has := ms[name]
			if want := strings.Contains(" "+strings.Join(where, " ")+" ", " "+d.name+" "); has != want {
				t.Errorf("%s: %s reported=%v, want %v", d.name, name, has, want)
			}
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !emitted[m.name] {
			t.Errorf("metric %s is named in BENCHMARK.json but no workload emitted it", m.name)
		}
	}
}

// TestDriverLine checks the last line of a single-workload, single-pass run:
// exactly the driver's four keys, and every metric of the pass by name.
func TestDriverLine(t *testing.T) {
	for trace, ms := range map[string][]metric{"0": endToEnd, "1": perLayer} {
		var out bytes.Buffer
		if err := runBenchmark(config{workload: "sor-gather-fs-sync", seed: 3, quick: true, trace: trace}, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("-trace %s: %d keys on the last line, want correct, attempted, failed, metrics", trace, len(line))
		}
		var metrics map[string]driverValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(ms) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(metrics), len(ms))
		}
		for _, m := range ms {
			if v, ok := metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("-trace %s: metric %s missing or unit %q", trace, m.name, v.Unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if p, ok := tailPercentile(19); ok {
		t.Errorf("19 samples have no percentile with ten beyond it, got p%d", p)
	}
	if p, _ := tailPercentile(200); p != 95 {
		t.Errorf("tailPercentile(200) = %d, want 95", p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "sp", start: 0, end: 100, parent: -1},
		{name: "save", start: 10, end: 60, parent: 0},
		{name: "encode", start: 50, end: 80, parent: 0}, // overlaps its sibling
		{name: "put", start: 20, end: 30, parent: 1},
	}
	got := selfTimes(spans)
	for i, want := range []int64{30, 40, 30, 10} {
		if got[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(runs ...float64) *fileDoc {
		d := &fileDoc{}
		for _, v := range runs {
			d.Runs = append(d.Runs, runDoc{Workload: "fleet-mix", EndToEnd: map[string]reported{"run_s": {Value: v, Unit: "s", N: 1}}})
		}
		return d
	}
	steady := doc(1.00, 1.01, 0.99, 1.00, 1.02)
	for _, c := range []struct {
		name                  string
		b                     *fileDoc
		regressed, unresolved int
	}{
		{"same", doc(1.01, 1.00, 1.00, 0.99, 1.01), 0, 0},
		{"slower", doc(1.30, 1.31, 1.29, 1.30, 1.32), 1, 0},
		{"noisy", doc(0.6, 1.4, 1.0, 0.7, 1.3), 0, 1},
	} {
		var out bytes.Buffer
		regressed, unresolved := compareDocs(&out, steady, c.b)
		if regressed != c.regressed || unresolved != c.unresolved {
			t.Errorf("%s: %d regressed, %d unresolved, want %d and %d\n%s", c.name, regressed, unresolved, c.regressed, c.unresolved, out.String())
		}
	}
}
