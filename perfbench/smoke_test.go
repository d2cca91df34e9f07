package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// catalogue reads the metric names and units BENCHMARK.json declares.
func catalogue(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func runTiny(t *testing.T, workload, seed, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", seed, "-seconds", "0.3", "-trace", trace}
	if code := run(args, tinySizes, t.TempDir(), &stdout, &stderr); code != 0 {
		t.Fatalf("%s seed %s trace %s: exit %d\n%s", workload, seed, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %s trace %s: correct=%t attempted=%d failed=%d\n%s",
			workload, seed, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", workload, name)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, on two
// seeds: every answer checks, every declared metric is printed with its
// unit, and the exact counts repeat between two runs of one seed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := catalogue(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runTiny(t, w.name, "1", "0")
			checkMetrics(t, w.name, a.Metrics, endToEnd)
			if b := runTiny(t, w.name, "1", "0"); b.Metrics["total_bits"] != a.Metrics["total_bits"] ||
				b.Metrics["max_load_bits"] != a.Metrics["max_load_bits"] {
				t.Errorf("bit counts differ between runs: %v %v, then %v %v",
					a.Metrics["total_bits"], a.Metrics["max_load_bits"],
					b.Metrics["total_bits"], b.Metrics["max_load_bits"])
			}

			ta := runTiny(t, w.name, "1", "1")
			checkMetrics(t, w.name, ta.Metrics, perLayer)
			if e := ta.Metrics["error_rate"].Value; e != 0 {
				t.Errorf("error_rate %v", e)
			}
			tb := runTiny(t, w.name, "1", "1")
			for _, name := range []string{"engine.tuples_routed", "transport.wire_bytes"} {
				if ta.Metrics[name] != tb.Metrics[name] {
					t.Errorf("%s differs between runs: %v, then %v", name, ta.Metrics[name], tb.Metrics[name])
				}
			}
			if ta.Metrics["engine.tuples_routed"].Value == 0 {
				t.Error("no tuples routed")
			}
			if w.name == "loopback-2rank" && ta.Metrics["transport.wire_bytes"].Value == 0 {
				t.Error("no wire bytes on the worker group")
			}

			runTiny(t, w.name, "2", "0")
		})
	}
}
