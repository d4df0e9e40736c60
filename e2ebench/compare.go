package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compareFiles compares the reports of two results files, given as
// "OLD,NEW".
func compareFiles(arg string) error {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	if !ok {
		return fmt.Errorf("--compare wants OLD,NEW, got %q", arg)
	}
	old, err := readReports(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReports(newPath)
	if err != nil {
		return err
	}
	out, err := compareReports(old, cur)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareReports tabulates, per workload and metric, the median and
// quartiles of the old and new runs and the change of the medians. It
// refuses when any two reports carry different host fingerprints: a
// number from another machine says nothing about the code.
func compareReports(old, cur []report) (string, error) {
	if len(old) == 0 || len(cur) == 0 {
		return "", fmt.Errorf("nothing to compare: %d old and %d new reports", len(old), len(cur))
	}
	ref := old[0].Host
	for _, r := range append(append([]report(nil), old...), cur...) {
		if r.Host != ref {
			return "", fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", r.Host, ref)
		}
	}
	type key struct{ workload, metric string }
	values := func(rs []report) (map[key][]float64, map[key]string) {
		v, units := map[key][]float64{}, map[key]string{}
		for _, r := range rs {
			ms := r.EndToEnd
			if r.Trace {
				ms = r.PerLayer
			}
			for name, m := range ms {
				k := key{r.Workload, name}
				v[k] = append(v[k], m.Value)
				units[k] = m.Unit
			}
		}
		return v, units
	}
	ov, units := values(old)
	nv, _ := values(cur)
	keys := make([]key, 0, len(ov))
	for k := range ov {
		if _, ok := nv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "host %s, %d cpus; %d old and %d new runs\n", ref.CPU, ref.NProc, len(old), len(cur))
	fmt.Fprintf(&sb, "%-16s %-32s %28s %28s %9s\n", "workload", "metric", "old p50 [p25, p75]", "new p50 [p25, p75]", "change")
	for _, k := range keys {
		o, n := quartilesOf(ov[k]), quartilesOf(nv[k])
		change := "n/a"
		if o.P50 != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(n.P50-o.P50)/o.P50)
		}
		fmt.Fprintf(&sb, "%-16s %-32s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %9s %s\n",
			k.workload, k.metric, o.P50, o.P25, o.P75, n.P50, n.P25, n.P75, change, units[k])
	}
	return sb.String(), nil
}
