package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare checks untraced result records against the end-to-end
// bounds of BENCHMARK.json. With one directory it reports, per
// workload and metric, the median over the records and the spread
// (interquartile distance over median), which must stay within the
// metric's bound. With two it also checks that the
// second set's median is not worse than the first's by more than the
// bound. Records whose fingerprints differ are refused: numbers from
// different hosts or toolchains say nothing about the code. It returns
// the exit code: 0 all within bounds, 1 a bound exceeded or a run
// incorrect, 2 unusable input.
func compare(specPath string, dirs []string) int {
	if len(dirs) < 1 || len(dirs) > 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare DIR [DIR2]")
		return 2
	}
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
		return 2
	}
	sets := make([]map[string][]record, len(dirs))
	var first *record
	for i, dir := range dirs {
		recs, err := loadRecords(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			return 2
		}
		sets[i] = map[string][]record{}
		for _, r := range recs {
			if first == nil {
				first = &r
			}
			if r.Fingerprint != first.Fingerprint {
				fmt.Fprintf(os.Stderr, "e2ebench compare: refusing to compare: fingerprint %+v (%s seed %d) differs from %+v (%s seed %d)\n",
					r.Fingerprint, r.Workload, r.Seed, first.Fingerprint, first.Workload, first.Seed)
				return 2
			}
			sets[i][r.Workload] = append(sets[i][r.Workload], r)
		}
	}
	if first == nil {
		fmt.Fprintln(os.Stderr, "e2ebench compare: no untraced result records")
		return 2
	}
	fmt.Printf("fingerprint: %+v\n", first.Fingerprint)
	code := 0
	workloadNames := make([]string, 0, len(sets[0]))
	for w := range sets[0] {
		workloadNames = append(workloadNames, w)
	}
	sort.Strings(workloadNames)
	for _, w := range workloadNames {
		a := sets[0][w]
		fmt.Printf("%s: %d runs (seeds %s)", w, len(a), seedList(a))
		var b []record
		if len(sets) == 2 {
			b = sets[1][w]
			fmt.Printf(" vs %d runs (seeds %s)", len(b), seedList(b))
		}
		fmt.Println()
		for _, set := range [][]record{a, b} {
			for _, r := range set {
				if !r.Result.Correct {
					fmt.Printf("  FAIL %s seed %d: %d of %d operations failed\n", w, r.Seed, r.Result.Failed, r.Result.Attempted)
					code = 1
				}
			}
		}
		for _, m := range spec.EndToEnd {
			va := values(a, m.Name)
			line := fmt.Sprintf("  %-12s median %12.6g %-5s", m.Name, median(va), m.Unit)
			verdict := "ok"
			if len(va) >= 2 {
				sp := spread(va)
				line += fmt.Sprintf(" spread %6.2f%% (bound %g%%)", 100*sp, 100*m.Bound)
				switch {
				case sp > m.Bound:
					verdict, code = "SPREAD ABOVE BOUND", 1
				case sp >= m.Bound/3:
					verdict = "ok, spread above a third of the bound"
				}
			}
			if len(b) > 0 {
				vb := values(b, m.Name)
				change := median(vb)/median(va) - 1
				worse := change
				if m.Better == "higher" {
					worse = -change
				}
				line += fmt.Sprintf(" -> %12.6g (%+6.2f%%)", median(vb), 100*change)
				if worse > m.Bound {
					verdict, code = "WORSE THAN BOUND", 1
				}
			}
			fmt.Printf("%s  %s\n", line, verdict)
		}
	}
	return code
}

// loadRecords reads every untraced result record under dir.
func loadRecords(dir string) ([]record, error) {
	var recs []record
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		var r record
		if err := readJSON(path, &r); err != nil {
			return err
		}
		if r.Schema != recordSchema {
			return fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
		}
		if r.Trace == 0 {
			recs = append(recs, r)
		}
		return nil
	})
	return recs, err
}

func values(recs []record, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func seedList(recs []record) string {
	seeds := make([]string, len(recs))
	for i, r := range recs {
		seeds[i] = fmt.Sprint(r.Seed)
	}
	return strings.Join(seeds, ",")
}
