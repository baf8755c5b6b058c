package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two files of benchmark output (any number of runs
// each, found by their record lines) and, per end-to-end metric ×
// workload, prints each side's median and quartiles and a verdict:
//
//	worse    the new median is worse than the base by more than the bound
//	within   the medians differ by no more than the bound
//	better   the new median is better by more than the bound
//	unresolved  a side's spread (quartile distance over median) exceeds
//	            the bound, so the difference cannot be judged — unless
//	            every new run reads better than every base run
//
// It fails when any pairing is worse or unresolved.
func compareMain(root string, args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare BASE_RESULTS NEW_RESULTS")
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := readRecords(args[0])
	if err != nil {
		return err
	}
	next, err := readRecords(args[1])
	if err != nil {
		return err
	}
	var workloads []string
	for wl := range base {
		if next[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("no workload has results on both sides")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] (n)\tnew median [q1, q3] (n)\tchange\tbound\tverdict")
	bad := 0
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(base[wl], m.Name), values(next[wl], m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			change := (qb[1] - qa[1]) / qa[1]
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			spread := math.Max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			verdict := "within"
			switch {
			case spread > m.Bound && m.Name != "setup_s":
				switch {
				case allBetter(a, b, m.Better == "higher"):
					verdict = "better (every run; spread wider than bound)"
				default:
					verdict = fmt.Sprintf("unresolved (spread %.3f)", spread)
					bad++
				}
			case worse > m.Bound:
				verdict = "worse: beyond bound"
				bad++
			case -worse > m.Bound:
				verdict = "better: beyond bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, qa[1], qa[0], qa[2], len(a), qb[1], qb[0], qb[2], len(b), 100*change, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairings worse than their bound or unresolved", bad)
	}
	return nil
}

// readRecords collects the record lines of a benchmark output file,
// grouped by workload. Traced runs carry end-to-end numbers too, so a
// traced set compared against an untraced one shows the tracing
// overhead.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	all := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Failed > 0 {
			return nil, fmt.Errorf("%s: %s seed %d had %d failed ops", path, r.Workload, r.Seed, r.Failed)
		}
		all[r.Workload] = append(all[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%s: no %q lines", path, strings.TrimSpace(recordPrefix))
	}
	return all, nil
}

func values(rs []record, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.EndToEnd[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// quartiles returns q1, median, q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return q
}

// allBetter reports whether every new value beats every base value.
func allBetter(base, next []float64, higher bool) bool {
	for _, a := range base {
		for _, b := range next {
			if (higher && b <= a) || (!higher && b >= a) {
				return false
			}
		}
	}
	return true
}
