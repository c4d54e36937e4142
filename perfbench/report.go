package main

import "time"

// attrRow is one layer's share of a workload's time: a work count and the
// host time the replay spent on that work, which gives the unit cost.
type attrRow struct {
	layer string
	count float64
	unit  string
	time  time.Duration
}

// attribution prints total ≈ Σ count × unit cost + residual. total is the
// untraced time being explained; traced is the time of the traced run the
// unit costs come from. The residual is what no timed layer call covers:
// harness and table work, garbage collection, and the tracing itself.
func (b *bench) attribution(title, name string, total, traced time.Duration, rows []attrRow) {
	b.printf("attribution of %s:", title)
	b.printf("  %-26s %14s %14s %12s %7s", "layer", "count", "unit cost", "seconds", "share")
	var sum time.Duration
	for _, r := range rows {
		unit := 0.0
		if r.count > 0 {
			unit = float64(r.time.Nanoseconds()) / r.count
		}
		b.printf("  %-26s %14.0f %11.1f ns/%s %12.4f %6.1f%%", r.layer, r.count, unit, r.unit, r.time.Seconds(), 100*r.time.Seconds()/total.Seconds())
		sum += r.time
	}
	res := total - sum
	b.printf("  %-26s %14s %14s %12.4f %6.1f%%", "residual", "", "", res.Seconds(), 100*res.Seconds()/total.Seconds())
	b.printf("  %-26s %14s %14s %12.4f  (traced run: %.4f s)", name, "", "", total.Seconds(), traced.Seconds())
}
