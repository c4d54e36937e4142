package harness

import (
	"fmt"

	"asap/internal/model"
	"asap/internal/runspec"
	"asap/internal/workload"
)

// strandWorkloads are the structures annotated for the strand extension.
var strandWorkloads = []string{"cceh", "fast_fair", "dash_eh", "p_masstree"}

// strandModels run per workload, baseline first (the speedup denominator).
var strandModels = []string{
	model.NameBaseline, model.NameHOPSRP, model.NameStrandWeaver, model.NameASAPRP,
}

// strandParams annotates each structure-level operation as its own strand.
func (h *Harness) strandParams() workload.Params {
	p := h.params(4)
	p.Strands = true
	return p
}

// AblStrands runs the strand-persistency extension the paper flags as
// follow-on work (§VII-E): workloads annotated with one strand per
// structure-level operation run under HOPS (conservative, strand-blind),
// StrandWeaver (per-strand conservative flushing, strands concurrent) and
// ASAP (eager flushing — which already extracts the cross-epoch concurrency
// strands expose, without strand annotations). Expected ordering per the
// paper: HOPS < StrandWeaver <= ASAP.
func (h *Harness) AblStrands() (*Table, error) {
	t := &Table{
		ID:     "abl_strands",
		Title:  "Strand persistency extension (strand-annotated traces, 4 threads; speedup vs baseline)",
		Header: []string{"workload", "hops_rp", "strandweaver", "asap_rp", "sw/hops", "asap/sw"},
	}
	for _, wl := range strandWorkloads {
		p := h.strandParams()
		cfg := h.cfgFor(4)
		cycles := make(map[string]float64, len(strandModels))
		for _, mn := range strandModels {
			r, err := h.RunParams(cfg, p, wl, mn)
			if err != nil {
				return nil, err
			}
			cycles[mn] = float64(r.Cycles)
		}
		base := cycles[model.NameBaseline]
		hops := cycles[model.NameHOPSRP]
		sw := cycles[model.NameStrandWeaver]
		asap := cycles[model.NameASAPRP]
		t.Rows = append(t.Rows, []string{
			wl,
			fmt.Sprintf("%.2f", base/hops),
			fmt.Sprintf("%.2f", base/sw),
			fmt.Sprintf("%.2f", base/asap),
			fmt.Sprintf("%.2f", hops/sw),
			fmt.Sprintf("%.2f", sw/asap),
		})
	}
	t.Notes = append(t.Notes,
		"paper §VII-E: StrandWeaver > HOPS (strands flush concurrently); ASAP >= StrandWeaver",
		"(eager flushing already overlaps epochs without needing strand annotations)")
	return t, nil
}

func (h *Harness) planAblStrands() []runspec.RunSpec {
	var keys []runspec.RunSpec
	for _, wl := range strandWorkloads {
		for _, mn := range strandModels {
			keys = append(keys, jobParams(h.cfgFor(4), h.strandParams(), wl, mn))
		}
	}
	return keys
}

func init() {
	experiments["abl_strands"] = experiment{run: (*Harness).AblStrands, plan: (*Harness).planAblStrands}
}
