package harness

import (
	"fmt"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/runspec"
)

// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's own sensitivity studies (extension work): each isolates
// one mechanism of ASAP.

// ablationWorkloads are a representative subset: one dependency-heavy
// structure, one fence-heavy tree, one WHISPER app.
var ablationWorkloads = []string{"cceh", "fast_fair", "nstore"}

// ablStructSizes is the structure-size sweep shared by AblRT and AblPB.
var ablStructSizes = []int{4, 8, 16, 32, 64}

// rtCfg is the recovery-table size sweep's machine configuration.
func rtCfg(entries int) config.Config {
	cfg := config.Default()
	cfg.RTEntries = entries
	return cfg
}

// AblRT sweeps the recovery-table size: smaller tables NACK more and fall
// back to conservative flushing; the paper argues 32 entries suffice.
func (h *Harness) AblRT() (*Table, error) {
	t := &Table{
		ID:     "abl_rt",
		Title:  "Ablation: recovery table size (ASAP_RP cycles normalized to 32 entries)",
		Header: []string{"workload", "4", "8", "16", "32", "64"},
	}
	for _, wl := range ablationWorkloads {
		ref := float64(0)
		row := []string{wl}
		var vals []float64
		for _, sz := range ablStructSizes {
			r, err := h.RunCfg(rtCfg(sz), wl, model.NameASAPRP, 4)
			if err != nil {
				return nil, err
			}
			c := float64(r.Cycles)
			if sz == 32 {
				ref = c
			}
			vals = append(vals, c)
		}
		for _, v := range vals {
			row = append(row, f2(v/ref))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "NACK fallback keeps small tables functional; expect mild slowdown below 16")
	return t, nil
}

func (h *Harness) planAblRT() []runspec.RunSpec {
	var keys []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, sz := range ablStructSizes {
			keys = append(keys, h.jobCfg(rtCfg(sz), wl, model.NameASAPRP, 4))
		}
	}
	return keys
}

// pbCfg is the persist-buffer size sweep's machine configuration.
func pbCfg(entries int) config.Config {
	cfg := config.Default()
	cfg.PBEntries = entries
	return cfg
}

// AblPB sweeps the persist-buffer size: Figure 11 suggests ASAP performs
// well with far fewer than 32 entries.
func (h *Harness) AblPB() (*Table, error) {
	t := &Table{
		ID:     "abl_pb",
		Title:  "Ablation: persist buffer size (cycles normalized to 32 entries)",
		Header: []string{"workload", "model", "4", "8", "16", "32", "64"},
	}
	for _, wl := range ablationWorkloads {
		for _, mdl := range []string{model.NameHOPSRP, model.NameASAPRP} {
			row := []string{wl, mdl}
			var vals []float64
			ref := 0.0
			for _, sz := range ablStructSizes {
				r, err := h.RunCfg(pbCfg(sz), wl, mdl, 4)
				if err != nil {
					return nil, err
				}
				c := float64(r.Cycles)
				if sz == 32 {
					ref = c
				}
				vals = append(vals, c)
			}
			for _, v := range vals {
				row = append(row, f2(v/ref))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes, "paper (§VII-B): \"we expect to observe similar performance with smaller PBs\" for ASAP")
	return t, nil
}

func (h *Harness) planAblPB() []runspec.RunSpec {
	var keys []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, mdl := range []string{model.NameHOPSRP, model.NameASAPRP} {
			for _, sz := range ablStructSizes {
				keys = append(keys, h.jobCfg(pbCfg(sz), wl, mdl, 4))
			}
		}
	}
	return keys
}

// noEagerCfg disables eager flushing (safe flushes only).
func noEagerCfg() config.Config {
	cfg := config.Default()
	cfg.ASAPNoEager = true
	return cfg
}

// AblEager disables eager flushing while keeping the buffering: isolates the
// speculation mechanism from the persist-buffer decoupling.
func (h *Harness) AblEager() (*Table, error) {
	t := &Table{
		ID:     "abl_eager",
		Title:  "Ablation: ASAP_RP with eager flushing disabled (safe flushes only)",
		Header: []string{"workload", "eager cycles", "no-eager cycles", "eager gain"},
	}
	for _, wl := range Workloads() {
		er, err := h.Run(wl, model.NameASAPRP, 4)
		if err != nil {
			return nil, err
		}
		cr, err := h.RunCfg(noEagerCfg(), wl, model.NameASAPRP, 4)
		if err != nil {
			return nil, err
		}
		eager := float64(er.Cycles)
		cons := float64(cr.Cycles)
		t.Rows = append(t.Rows, []string{
			wl, fmt.Sprintf("%.0f", eager), fmt.Sprintf("%.0f", cons), f2(cons / eager),
		})
	}
	t.Notes = append(t.Notes, "no-eager ASAP ~= HOPS with CDR messages instead of polling")
	return t, nil
}

func (h *Harness) planAblEager() []runspec.RunSpec {
	var keys []runspec.RunSpec
	for _, wl := range Workloads() {
		keys = append(keys,
			h.job(wl, model.NameASAPRP, 4),
			h.jobCfg(noEagerCfg(), wl, model.NameASAPRP, 4))
	}
	return keys
}

// ablXPBufSizes is the XPBuffer sweep (lines per MC).
var ablXPBufSizes = []int{0, 16, 64, 256}

// xpBufCfg sets the XPBuffer size.
func xpBufCfg(lines int) config.Config {
	cfg := config.Default()
	cfg.XPBufLines = lines
	return cfg
}

// AblXPBuf sweeps the Optane XPBuffer size, which sets the cost of
// undo-record creation reads (§V-A argues most hit this buffer).
func (h *Harness) AblXPBuf() (*Table, error) {
	t := &Table{
		ID:     "abl_xpbuf",
		Title:  "Ablation: XPBuffer lines vs undo-read media traffic (ASAP_RP)",
		Header: []string{"workload", "xp=0 reads", "xp=16", "xp=64", "xp=256", "cycles xp0/xp64"},
	}
	for _, wl := range ablationWorkloads {
		row := []string{wl}
		var cyc0, cyc64 float64
		for _, sz := range ablXPBufSizes {
			res, err := h.RunCfg(xpBufCfg(sz), wl, model.NameASAPRP, 4)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", res.Stats.Get("mcUndoMediaReads")))
			switch sz {
			case 0:
				cyc0 = float64(res.Cycles)
			case 64:
				cyc64 = float64(res.Cycles)
			}
		}
		row = append(row, f2(cyc0/cyc64))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (h *Harness) planAblXPBuf() []runspec.RunSpec {
	var keys []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, sz := range ablXPBufSizes {
			keys = append(keys, h.jobCfg(xpBufCfg(sz), wl, model.NameASAPRP, 4))
		}
	}
	return keys
}

// interleaveCfg sets the MC interleave granularity.
func interleaveCfg(bytes uint64) config.Config {
	cfg := config.Default()
	cfg.InterleaveBytes = bytes
	return cfg
}

// AblInterleave compares 256 B vs 4 KB interleaving across the controllers:
// fine interleaving spreads epochs over both MCs, the regime where eager
// flushing matters most (§III).
func (h *Harness) AblInterleave() (*Table, error) {
	t := &Table{
		ID:     "abl_interleave",
		Title:  "Ablation: MC interleave granularity (cycles, 4 threads)",
		Header: []string{"workload", "model", "256B", "4KB", "256B/4KB"},
	}
	for _, wl := range ablationWorkloads {
		for _, mdl := range []string{model.NameHOPSRP, model.NameASAPRP} {
			fr, err := h.RunCfg(interleaveCfg(256), wl, mdl, 4)
			if err != nil {
				return nil, err
			}
			cr, err := h.RunCfg(interleaveCfg(4096), wl, mdl, 4)
			if err != nil {
				return nil, err
			}
			fine := float64(fr.Cycles)
			coarse := float64(cr.Cycles)
			t.Rows = append(t.Rows, []string{
				wl, mdl, fmt.Sprintf("%.0f", fine), fmt.Sprintf("%.0f", coarse), f2(fine / coarse),
			})
		}
	}
	return t, nil
}

func (h *Harness) planAblInterleave() []runspec.RunSpec {
	var keys []runspec.RunSpec
	for _, wl := range ablationWorkloads {
		for _, mdl := range []string{model.NameHOPSRP, model.NameASAPRP} {
			keys = append(keys,
				h.jobCfg(interleaveCfg(256), wl, mdl, 4),
				h.jobCfg(interleaveCfg(4096), wl, mdl, 4))
		}
	}
	return keys
}

func init() {
	experiments["abl_rt"] = experiment{run: (*Harness).AblRT, plan: (*Harness).planAblRT}
	experiments["abl_pb"] = experiment{run: (*Harness).AblPB, plan: (*Harness).planAblPB}
	experiments["abl_eager"] = experiment{run: (*Harness).AblEager, plan: (*Harness).planAblEager}
	experiments["abl_xpbuf"] = experiment{run: (*Harness).AblXPBuf, plan: (*Harness).planAblXPBuf}
	experiments["abl_interleave"] = experiment{run: (*Harness).AblInterleave, plan: (*Harness).planAblInterleave}
}
