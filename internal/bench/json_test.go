package bench

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

// TestBenchJSONDeterministic: two emissions of the same config agree on
// every counter (wall-clock excluded), and the headline index counters
// are actually exercised by the fixed workload.
func TestBenchJSONDeterministic(t *testing.T) {
	a, err := BuildJSONReport(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildJSONReport(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if diffs := diffReports(toTree(t, a), toTree(t, b)); len(diffs) != 0 {
		t.Fatalf("back-to-back reports differ:\n%s", strings.Join(diffs, "\n"))
	}
	if a.KNN.IndexPruned == 0 || a.Join.IndexPruned == 0 || a.Stream.Pruned == 0 {
		t.Errorf("fixed workload never pruned: knn=%d join=%d stream=%d",
			a.KNN.IndexPruned, a.Join.IndexPruned, a.Stream.Pruned)
	}
	if a.Reuse.GridRebuildsAvoided == 0 {
		t.Error("store-backed rerun avoided no grid rebuilds")
	}
	if len(a.Motif) == 0 || a.Motif[0].DPCells == 0 {
		t.Errorf("motif runs carry no DP effort: %+v", a.Motif)
	}
}

// TestBenchJSONBaseline is the CI counter diff: re-run the workload with
// the checked-in BENCH_*.json's own config and require every non-timing
// field to match exactly (floats at 1e-9 relative). The first PR to ship
// a baseline seeds it; later PRs fail here if a counter drifts.
func TestBenchJSONBaseline(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no BENCH_*.json baseline checked in yet")
	}
	// Highest-numbered file wins: compare the PR numbers, not the names
	// (lexically BENCH_8 sorts after BENCH_18).
	num := func(f string) int {
		n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json"))
		return n
	}
	sort.Slice(files, func(i, j int) bool { return num(files[i]) < num(files[j]) })
	baseline := files[len(files)-1]
	raw, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var want JSONReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", baseline, err)
	}
	if want.Config.Schema != JSONSchema {
		t.Skipf("%s is schema %d, current is %d: regenerate with motifbench -json",
			baseline, want.Config.Schema, JSONSchema)
	}

	cfg := DefaultConfig()
	cfg.Seed = want.Config.Seed
	got, err := BuildJSONReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := diffReports(toTree(t, &want), toTree(t, got)); len(diffs) != 0 {
		t.Errorf("counters drifted from %s — if intended, regenerate it with motifbench -json:\n%s",
			baseline, strings.Join(diffs, "\n"))
	}
}

// toTree round-trips a report through JSON into generic maps so the diff
// can walk it structurally.
func toTree(t *testing.T, rep *JSONReport) any {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// diffReports walks two JSON trees and reports every mismatch, skipping
// keys with the _ms suffix (wall clock) and comparing numbers at 1e-9
// relative tolerance (counters are integers and must match exactly at
// that tolerance; distances absorb cross-arch libm ulps).
func diffReports(want, got any) []string {
	var diffs []string
	walkDiff("", want, got, &diffs)
	return diffs
}

func walkDiff(path string, want, got any, diffs *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			*diffs = append(*diffs, path+": object vs non-object")
			return
		}
		keys := make(map[string]bool, len(w)+len(g))
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		for k := range keys {
			if strings.HasSuffix(k, "_ms") {
				continue
			}
			wv, wok := w[k]
			gv, gok := g[k]
			if !wok || !gok {
				*diffs = append(*diffs, path+"/"+k+": present on one side only")
				continue
			}
			walkDiff(path+"/"+k, wv, gv, diffs)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			*diffs = append(*diffs, path+": array shape differs")
			return
		}
		for i := range w {
			walkDiff(path+"["+strconv.Itoa(i)+"]", w[i], g[i], diffs)
		}
	case json.Number:
		g, ok := got.(json.Number)
		if !ok {
			*diffs = append(*diffs, path+": number vs non-number")
			return
		}
		wf, _ := w.Float64()
		gf, _ := g.Float64()
		tol := 1e-9 * math.Max(math.Abs(wf), math.Abs(gf))
		if math.Abs(wf-gf) > tol {
			*diffs = append(*diffs, path+": "+w.String()+" vs "+g.String())
		}
	default:
		if want != got {
			*diffs = append(*diffs, path+": values differ")
		}
	}
}
