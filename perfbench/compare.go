package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain compares two result records (written with -records).
// Exact counts must be identical, on any hosts: a difference is a
// behaviour change and fails the comparison. Times are compared only when
// both records come from the same machine (CPU model, nproc, GOMAXPROCS,
// Go version); otherwise the time comparison is refused and only the
// counts are checked.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	old, cur := recs[0], recs[1]
	if old.Workload != cur.Workload || old.Seed != cur.Seed || old.Trace != cur.Trace {
		fmt.Fprintf(os.Stderr, "perfbench compare: records differ in workload, seed or mode (%s/%d/%v vs %s/%d/%v)\n",
			old.Workload, old.Seed, old.Trace, cur.Workload, cur.Seed, cur.Trace)
		return 2
	}
	// The commit is recorded but is not part of the machine's identity:
	// comparing two commits on one host is the point.
	oh, ch := old.Host, cur.Host
	oh.Commit, ch.Commit = "", ""
	sameHost := oh == ch
	if !sameHost {
		fmt.Printf("time comparison refused: host fingerprints differ\n  old %+v\n  new %+v\n", old.Host, cur.Host)
	}
	names := make([]string, 0, len(old.Metrics))
	for n := range old.Metrics {
		names = append(names, n)
	}
	for n := range cur.Metrics {
		if _, ok := old.Metrics[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	changes := 0
	for _, n := range names {
		o, ook := old.Metrics[n]
		c, cok := cur.Metrics[n]
		switch {
		case !ook || !cok:
			side := "new"
			if ook {
				side = "old"
			}
			fmt.Printf("%-36s only in %s\n", n, side)
			if o.Exact || c.Exact {
				changes++
			}
		case o.Exact || c.Exact:
			if o.Value != c.Value || o.Unit != c.Unit {
				fmt.Printf("BEHAVIOUR CHANGE %-36s %v -> %v %s\n", n, o.Value, c.Value, c.Unit)
				changes++
			}
		case sameHost:
			delta := 0.0
			if o.Value != 0 {
				delta = 100 * (c.Value - o.Value) / o.Value
			}
			fmt.Printf("%-36s %12.6g -> %12.6g %-8s %+7.1f%%\n", n, o.Value, c.Value, c.Unit, delta)
		}
	}
	if changes > 0 {
		fmt.Printf("%d exact count(s) changed: a behaviour change, not noise\n", changes)
		return 1
	}
	fmt.Println("exact counts identical")
	return 0
}
