package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// tinySize keeps every set-up to a fraction of a second.
var tinySize = size{
	setups: 2, users: 512, background: 64, seenCap: 64, warmup: 8,
	specs: 16, neighbours: 6, batch: 8, pool: 2,
}

func tinyOptions(t *testing.T, workload string, seed int64) options {
	return options{
		workload: workload,
		seed:     seed,
		duration: 300 * time.Millisecond,
		workDir:  t.TempDir(),
		size:     tinySize,
	}
}

func workloadNames() []string { return []string{"friending", "handset", "replicated-ingest"} }

// TestTinyRunsReportEveryMetric runs each workload untraced and traced at a
// tiny size: every named metric must be printed with its unit, and every op
// must pass its checks.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t, name, 7)
			o.trace = traced
			res, err := run(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestTamperedReplyFails corrupts every reply the initiator receives after
// set-up: each op must count its items as failed.
func TestTamperedReplyFails(t *testing.T) {
	flip := func(b []byte) []byte {
		b[len(b)-1] ^= 0x80
		return b
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		o := tinyOptions(t, name, 3)
		w := workloads[name](o)
		if err := w.setup(ctx); err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		switch w := w.(type) {
		case *friending:
			w.o.tamper = flip
		case *handset:
			w.o.tamper = flip
		case *ingest:
			w.o.tamper = flip
		}
		for i := 0; i < 3; i++ {
			items, failed := w.op(ctx, nil)
			if items == 0 || failed != items {
				t.Errorf("%s: tampered op %d: %d of %d items failed, want all", name, i, failed, items)
			}
		}
		w.close()
	}
}

// TestSameSeedSameInputs sets each workload up twice from one seed and once
// from another: the first two must generate identical inputs.
func TestSameSeedSameInputs(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames() {
		var sums [3][32]byte
		for i, seed := range []int64{5, 5, 6} {
			o := tinyOptions(t, name, seed)
			o.size.warmup = 0
			w := workloads[name](o)
			if err := w.setup(ctx); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			sums[i] = w.inputs()
			w.close()
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: two set-ups from one seed generated different inputs", name)
		}
		if sums[0] == sums[2] {
			t.Errorf("%s: different seeds generated identical inputs", name)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository root
// names exactly the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// TestEverySeedFindsAFillerRequest builds the friending participant and its
// seen-window filler for many seeds of the full-size corpus. A participant
// whose every residue two of its tags share admits no filler request, and
// seed 12 draws one first.
func TestEverySeedFindsAFillerRequest(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		c := newCorpus(seed, fullSize.users)
		tags, _, err := participantProfile(c, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := windowFiller(c, seed, tags, 1, newDigest()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
