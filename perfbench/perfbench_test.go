package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runTiny runs one workload at the tiny scale and decodes its result
// line.
func runTiny(t *testing.T, name string, trace int, spans string) result {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", strconv.Itoa(trace), "--spans", spans}
	if code := run(args, &out, &errs, tiny); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				spans := t.TempDir()
				res := runTiny(t, name, trace, spans)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
					case trace == 0 && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == 1 {
					file := filepath.Join(spans, name+"-seed7.jsonl")
					if st, err := os.Stat(file); err != nil || st.Size() == 0 {
						t.Errorf("span file %s missing or empty (%v)", file, err)
					}
				}
			})
		}
	}
}

func TestCorruptedReplyFailsTheRun(t *testing.T) {
	for _, name := range []string{"udp-echo-burst", "tcp-rr-churn"} {
		t.Run(name, func(t *testing.T) {
			rep, err := workloads[name](config{seed: 3, seconds: 0.2, scale: tiny, corrupt: 5})
			if err != nil {
				t.Fatal(err)
			}
			res, err := finish(rep, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Error("a run with corrupted replies passed the correctness check")
			}
			if res.Failed == 0 || res.Metrics["fail_ratio"].Value <= 0 {
				t.Errorf("failed=%d fail_ratio=%v, want the corrupted replies counted",
					res.Failed, res.Metrics["fail_ratio"].Value)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workloads and
// metric declarations in step with what the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	for _, c := range []struct {
		what  string
		decls []decl
		defs  []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.decls) != len(c.defs) {
			t.Errorf("%s: %d declared, %d reported", c.what, len(c.decls), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.decls[i].Name != d.name || c.decls[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s %s, reported %s %s", c.what, i, c.decls[i].Name, c.decls[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestLatencyQuantiles checks the latency histogram against exact
// quantiles of a known spread of values.
func TestLatencyQuantiles(t *testing.T) {
	var l latencies
	var exact []float64
	for i := 0; i < 100000; i++ {
		ns := 50 + float64(i%997)*float64(i%13+1)*3.7 // 50 ns to ~48 µs
		l.add(ns)
		exact = append(exact, ns)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := quantile(append([]float64(nil), exact...), q) / 1e3
		if got := l.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("q%.2f = %.4f us, want %.4f within 2%%", q, got, want)
		}
	}
}

// TestFoldScalesQuantiles checks that calibrating a slice's samples by
// a speed scales its quantiles by that speed and keeps every sample.
func TestFoldScalesQuantiles(t *testing.T) {
	var raw, cur, cal latencies
	for i := 0; i < 50000; i++ {
		ns := 200 + float64(i%1009)*41.3
		raw.add(ns)
		cur.add(ns)
	}
	cal.fold(&cur, 0.6)
	if cal.n != raw.n || cur.n != 0 {
		t.Fatalf("fold kept %d of %d samples, left %d behind", cal.n, raw.n, cur.n)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := 0.6 * raw.quantile(q)
		if got := cal.quantile(q); got < want*0.97 || got > want*1.03 {
			t.Errorf("q%.2f = %.4f us, want %.4f within 3%%", q, got, want)
		}
	}
}

// TestReferenceSpeed checks that every workload has a sensitivity, that
// the reference measures a positive, finite speed and that a span
// averages its two ends.
func TestReferenceSpeed(t *testing.T) {
	for _, name := range workloadNames() {
		if !(refSensitivity[name] > 0) {
			t.Errorf("workload %s has no reference sensitivity", name)
		}
	}
	s := ref.probe()
	if !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("speed %v", s)
	}
	before := ref.last
	span := ref.span()
	if want := (before + ref.last) / 2; span != want {
		t.Errorf("span %v, want %v", span, want)
	}
}
