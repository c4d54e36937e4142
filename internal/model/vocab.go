package model

import "asap/internal/stats"

// The persistency models' stat vocabulary. Registration happens at package
// init so a typo at a call site panics on first write instead of silently
// forking a counter; asapsim -stats prints these descriptions next to the
// values. Names mirror the gem5 stats in Table VI of the paper where one
// exists. Each Register returns the dense key the models resolve to Counter
// handles once at construction (newHotCounters), keeping string hashing off
// the per-store path.
var (
	kClwbIssued          = stats.Register("clwbIssued", "explicit cache-line write-backs issued (baseline clwb+fence path)")
	kCyclesStalled       = stats.Register("cyclesStalled", "CPU stall cycles because of a full persist buffer")
	kDepsRecorded        = stats.Register("depsRecorded", "cross-thread dependency edges recorded between epochs (Figure 2)")
	kDfenceStalled       = stats.Register("dfenceStalled", "CPU stall cycles waiting on dfence completion")
	kDpoBroadcasts       = stats.Register("dpoBroadcasts", "DPO inter-MC ordering broadcasts")
	kEntriesInserted     = stats.Register("entriesInserted", "writes enqueued in the persist buffers")
	kEpochsCommitted     = stats.Register("epochsCommitted", "persist epochs committed durably")
	kFences              = stats.Register("fences", "ordering fences executed (baseline sfence path)")
	kHopsPolls           = stats.Register("hopsPolls", "HOPS completion polls while draining")
	kInterTEpochConflict = stats.Register("interTEpochConflict", "cross-thread epoch dependencies detected")
	kLrpForwardStalls    = stats.Register("lrpForwardStalls", "LRP stalls forwarding a line under a pending release")
	kLrpStallCycles      = stats.Register("lrpStallCycles", "cycles LRP cores spent stalled on release persists")
	kOfenceStalled       = stats.Register("ofenceStalled", "CPU stall cycles waiting on ofence ordering")
	kPbCoalesced         = stats.Register("pbCoalesced", "stores coalesced into an existing persist-buffer entry")
	kPbNacks             = stats.Register("pbNacks", "early flushes NACKed by the memory controller")
	kSpecMisspeculations = stats.Register("specMisspeculations", "PMEM-Spec misspeculations forcing replay")
	kSwStrands           = stats.Register("swStrands", "StrandWeaver strands opened")
	kTotSpecWrites       = stats.Register("totSpecWrites", "early (speculative) flushes issued")
	kVorpalBroadcasts    = stats.Register("vorpalBroadcasts", "Vorpal vector-clock broadcasts")
	kVorpalParkCycles    = stats.Register("vorpalParkCycles", "cycles Vorpal flushes spent parked on tag dependencies")
	kVorpalParked        = stats.Register("vorpalParked", "Vorpal flushes parked waiting on tag dependencies")
	kVorpalTagBytes      = stats.Register("vorpalTagBytes", "bytes of Vorpal vector-timestamp tags attached to stores")
)

// hotCounters is the bundle of pre-resolved stat handles the models touch
// on their per-store, per-fence, and per-conflict paths. Every model
// resolves the full bundle once at construction; unused handles cost
// nothing (resolution does not materialize a printed entry).
type hotCounters struct {
	clwbIssued          stats.Counter
	cyclesStalled       stats.Counter
	depsRecorded        stats.Counter
	dfenceStalled       stats.Counter
	dpoBroadcasts       stats.Counter
	entriesInserted     stats.Counter
	epochsCommitted     stats.Counter
	fences              stats.Counter
	hopsPolls           stats.Counter
	interTEpochConflict stats.Counter
	lrpForwardStalls    stats.Counter
	lrpStallCycles      stats.Counter
	ofenceStalled       stats.Counter
	pbCoalesced         stats.Counter
	pbNacks             stats.Counter
	specMisspeculations stats.Counter
	swStrands           stats.Counter
	totSpecWrites       stats.Counter
	vorpalBroadcasts    stats.Counter
	vorpalParkCycles    stats.Counter
	vorpalParked        stats.Counter
	vorpalTagBytes      stats.Counter
}

func newHotCounters(st *stats.Set) hotCounters {
	return hotCounters{
		clwbIssued:          st.Counter(kClwbIssued),
		cyclesStalled:       st.Counter(kCyclesStalled),
		depsRecorded:        st.Counter(kDepsRecorded),
		dfenceStalled:       st.Counter(kDfenceStalled),
		dpoBroadcasts:       st.Counter(kDpoBroadcasts),
		entriesInserted:     st.Counter(kEntriesInserted),
		epochsCommitted:     st.Counter(kEpochsCommitted),
		fences:              st.Counter(kFences),
		hopsPolls:           st.Counter(kHopsPolls),
		interTEpochConflict: st.Counter(kInterTEpochConflict),
		lrpForwardStalls:    st.Counter(kLrpForwardStalls),
		lrpStallCycles:      st.Counter(kLrpStallCycles),
		ofenceStalled:       st.Counter(kOfenceStalled),
		pbCoalesced:         st.Counter(kPbCoalesced),
		pbNacks:             st.Counter(kPbNacks),
		specMisspeculations: st.Counter(kSpecMisspeculations),
		swStrands:           st.Counter(kSwStrands),
		totSpecWrites:       st.Counter(kTotSpecWrites),
		vorpalBroadcasts:    st.Counter(kVorpalBroadcasts),
		vorpalParkCycles:    st.Counter(kVorpalParkCycles),
		vorpalParked:        st.Counter(kVorpalParked),
		vorpalTagBytes:      st.Counter(kVorpalTagBytes),
	}
}
