package obsv

// Stage identifies the pipeline stage on whose behalf a device IO was
// issued. The engine tags the device with the current stage (and vertex
// interval) as it moves through a superstep; the device attributes every
// page read/written, its virtual service time, and the cache consults to
// the stage active when the IO happened (see ssd.Stats.Stages).
//
// Stage values only index in-memory per-stage arrays; JSON exports and
// OpenMetrics labels carry the stage's name, so no stored format depends on
// the numbering.
type Stage uint8

const (
	// StageOther covers untagged IO: run setup, graph opening, value-file
	// initialization, final value loads, and CLI traffic outside a run.
	StageOther Stage = iota
	// StageVertex is vertex processing: value/adjacency/aux loads, the
	// parallel Process calls (whose sends append to the message logs), and
	// the dirty-page writebacks of a batch.
	StageVertex
	// StageSortGroup is the sort-and-group unit reading interval logs.
	StageSortGroup
	// StageRelog is the edge-log optimizer writing predicted-active
	// adjacency and flushing the log at the superstep boundary.
	StageRelog
	// StageCheckpoint is checkpoint commit and restore traffic.
	StageCheckpoint
	// StageScrub is device scrubbing. Scrub reads stores directly and
	// charges nothing to the virtual clock, so this stage stays zero on
	// the device; it exists so exports enumerate the whole pipeline.
	StageScrub
	// StageSpill is the external sort-group: run files written and merged
	// back when an interval log overflows the sort budget.
	StageSpill
	// StageBuild is graph construction (CSR build, generators).
	StageBuild
	// StageIngest is the streaming-ingest plane: WAL appends and replay,
	// and the crash-atomic delta merges that fold buffered mutations back
	// into the CSR files.
	StageIngest

	numStageSentinel
)

// NumStages is the number of defined stages; per-stage arrays are indexed
// by Stage and sized by it.
const NumStages = int(numStageSentinel)

var stageNames = [NumStages]string{
	"other", "vertex", "sortgroup", "relog",
	"checkpoint", "scrub", "spill", "build", "ingest",
}

// String returns the stage's stable lowercase name, used as the JSON
// "stage" field and the OpenMetrics label value.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the stable names of all stages in Stage order.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}
