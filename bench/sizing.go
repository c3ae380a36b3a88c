package main

import "sort"

// defaultSeconds is BENCHMARK.json's run_seconds: a warm-up round and
// seven measured ones.
const defaultSeconds = 32

// setupReps is how often the set-up is repeated; setup_s is the median.
const setupReps = 3

// sizing fixes how much work a run does. A run is a sequence of
// identical rounds and every round does a slice of every phase, so each
// metric is sampled across the whole run and a slow spell of the
// machine touches a few rounds of every metric, not all of one. Counts
// are per round.
type sizing struct {
	hosts int // local hosts per window
	// rounds is how many measured rounds follow the warm-up round.
	rounds int

	// roundWindows is how many stream windows the ingest and the cluster
	// stage each consume per round: about 53 000 records either way.
	roundWindows int
	smallBatches int     // 100-record batches at the end of the ingest slice
	restarts     int     // crash-and-restart repetitions after the ingest slice
	mixedSeconds float64 // reads beside paced writes
	mixedRate    int     // records/s the paced writer offers

	coldWindows    int // cold windows a cold search or a history reaches
	hotSearches    int
	batchSearches  int // 32-query batches
	coldSearches   int
	histories      int
	routedSearches int // quiescent routed searches

	analyticsSources int // one analytics pass per round
}

// workloads are the two shapes of input. Both run every stage.
var workloads = map[string]sizing{
	// Few, large windows: a request's work grows with the 1200
	// signatures of each window it touches (collecting and sorting
	// hits, parsing cold blocks, saving the ring at each window close).
	"wide": {
		hosts: 1200, roundWindows: 1, smallBatches: 150, restarts: 2, mixedSeconds: 1, mixedRate: 24000,
		coldWindows: 4, hotSearches: 64, batchSearches: 3, coldSearches: 8, histories: 3, routedSearches: 50,
		analyticsSources: 2000,
	},
	// The same records per second in windows a third the size, and a
	// three times deeper cold tier: the fixed cost of a request, a window
	// close and a block read weighs more than the per-signature work.
	"deep": {
		hosts: 400, roundWindows: 3, smallBatches: 120, restarts: 4, mixedSeconds: 1, mixedRate: 24000,
		coldWindows: 12, hotSearches: 300, batchSearches: 9, coldSearches: 10, histories: 3, routedSearches: 150,
		analyticsSources: 2000,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// minRounds is the fewest measured rounds a run makes.
const minRounds = 3

// roundSeconds is what a round of either shape takes on the two-core
// sandbox at the reference speed, in whole seconds.
const roundSeconds = 4

// sizingFor is a workload's shape with the round count the run length
// asked for pays for. The count is a function of -seconds alone, never
// of how fast the machine turns out to be: every run of one length does
// the same work.
func sizingFor(name string, seconds int) sizing {
	sz := workloads[name]
	sz.rounds = max(minRounds, seconds/roundSeconds-1) // one round's worth goes to the warm-up round
	return sz
}
