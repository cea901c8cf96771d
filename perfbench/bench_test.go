package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
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

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile pins the program's metric names,
// units and workloads to the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	same := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that every check passes, no operation fails, and every named
// metric is printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range loadBenchmarkFile(t).Workloads {
		for _, traced := range []bool{false, true} {
			r := workloads[w.Name](runConfig{seed: 7, measure: time.Second, traced: traced})
			out := finish(r, traced)
			if !out.Correct || out.Failed > 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d problems=%v", w.Name, traced, out.Correct, out.Failed, r.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(out.Metrics), len(want))
			}
			if !traced {
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.name, out.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestInjectedLossIsCountedWithoutStretchingTheRun drops a known share
// of datagrams on the mesh chain's R1–R2 link. Every loss must show up
// as a failed operation, conservation must still attribute every
// missing datagram to the link, and the reclaimed window slots must
// keep the run to its planned length.
func TestInjectedLossIsCountedWithoutStretchingTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mesh workload")
	}
	const loss = 0.01
	measure := 2 * time.Second
	start := time.Now()
	r := runDatagram(runConfig{seed: 3, measure: measure, lossRatio: loss}, false)
	elapsed := time.Since(start)
	if len(r.problems) > 0 {
		t.Fatalf("checks failed under injected loss: %v", r.problems)
	}
	ratio := float64(r.failed) / float64(r.attempted)
	if ratio < loss/2 || ratio > loss*2 {
		t.Errorf("fail ratio %.4f (%d of %d), want about %.2f", ratio, r.failed, r.attempted, loss)
	}
	// Each round may wait one slot timeout for its last losses; a
	// window that leaked lost slots would stall every round instead.
	limit := measure + rounds*(warmup+2*slotTimeout+200*time.Millisecond)
	if elapsed > limit {
		t.Errorf("run took %v under loss, want at most %v", elapsed, limit)
	}
}
