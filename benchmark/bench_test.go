package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, benchmark reports %v", layer, perLayer)
	}
}

// TestWhyLinesMatchWorkloads keeps the fixed rate, tail percentile and
// latency limit that BENCHMARK.json states per workload equal to the ones
// the benchmark runs.
func TestWhyLinesMatchWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bj.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, got.Name, w.name)
		}
		for _, want := range []string{
			fmt.Sprintf("%g req/s", w.rate), fmt.Sprintf("p%g", w.tailPct), fmt.Sprintf("SLO %g ms", w.sloMS),
		} {
			if !strings.Contains(got.Why, want) {
				t.Errorf("%s: why %q does not state %q", w.name, got.Why, want)
			}
		}
	}
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := newStream(w, 7).take(500), newStream(w, 7).take(500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if c := newStream(w, 8).take(500); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// TestMissWorkloadsNeverRepeatKeys checks that every request of a miss
// workload addresses a plan no earlier request did, through plan-affecting
// options only: θ for the default method, the methodology seed otherwise.
func TestMissWorkloadsNeverRepeatKeys(t *testing.T) {
	for _, w := range []*workload{coldMix, methods} {
		s := newStream(w, 3)
		seen := map[string]bool{}
		for _, it := range s.take(20000) {
			if seen[it.key()] {
				t.Fatalf("%s: key %s repeats", w.name, it.key())
			}
			seen[it.key()] = true
			if it.method == "" && it.seed != 0 {
				t.Fatalf("%s: default-method request salted with seed %d", w.name, it.seed)
			}
			if it.method == "" && (it.theta < 0.2 || it.theta >= 0.6) {
				t.Fatalf("%s: θ %g outside [0.2, 0.6)", w.name, it.theta)
			}
		}
	}
}

// TestKeptRounds checks that rounds are set aside by host steal alone:
// every round within maxRoundSteal is kept, and at least the asked-for
// number of rounds are kept, those with the least steal, in run order.
func TestKeptRounds(t *testing.T) {
	for _, c := range []struct {
		steals  []float64
		atLeast int
		want    []int
	}{
		{[]float64{0, 0, 0, 0}, 1, []int{0, 1, 2, 3}},
		{[]float64{0, 0.05, 0.002, 0.02}, 1, []int{0, 2}},
		{[]float64{0.2, 0.03, 0.05, 0.04, 0.06, 0.02, 0.3, 0.08}, 2, []int{1, 5}},
		{[]float64{0.2, 0.03, 0.05, 0.04, 0.06, 0.02, 0.3, 0.08}, 3, []int{1, 3, 5}},
		{[]float64{0.03, 0.04, 0.2}, 1, []int{0}},
		{[]float64{0.03, 0.04, 0.2}, 5, []int{0, 1, 2}},
		{[]float64{0.01, 0.3, 0.005, 0.001, 0.02}, 2, []int{0, 2, 3}},
	} {
		if got := keptRounds(c.steals, c.atLeast); !reflect.DeepEqual(got, c.want) {
			t.Errorf("keptRounds(%v, %d) = %v, want %v", c.steals, c.atLeast, got, c.want)
		}
	}
}

func TestHitCatalogSizes(t *testing.T) {
	if n := len(hitCSV.profiles); n > 64 || 2*n > 128 {
		t.Fatalf("%d profiles: the CSV and JSON variant of each must fit the 128-entry cache", n)
	}
	in, err := renderInputs(hitCSV)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range in.csv {
		if kb := len(b) / 1024; kb < 50 || kb > 500 {
			t.Errorf("%v: %d KB body outside 50-500 KB", hitCSV.profiles[i], kb)
		}
	}
}

func TestPromSample(t *testing.T) {
	name, stage, v, ok := promSample(`sieved_stage_seconds_sum{stage="decode"} 0.25`)
	if !ok || name != "sieved_stage_seconds_sum" || stage != "decode" || v != 0.25 {
		t.Fatalf("got %q %q %g %v", name, stage, v, ok)
	}
	if _, _, _, ok := promSample("# TYPE x counter"); ok {
		t.Fatal("comment parsed as a sample")
	}
}

// TestShortRunEmitsBenchmarkMetrics runs every workload briefly, untraced
// and traced, against freshly built replicas, and checks that the result
// line carries exactly BENCHMARK.json's metric names with their units, and
// that no request failed.
func TestShortRunEmitsBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sieved and starts replicas")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sieved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sieved")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sieved: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "1", "-seconds", "2", "-trace", fmt.Sprint(trace), "-sieved", bin, "-out", dir}
			if code := run(args, &out); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.name, trace, d.name, got, d.unit)
				}
			}
		}
	}
}
