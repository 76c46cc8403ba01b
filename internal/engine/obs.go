package engine

import (
	"sync/atomic"

	"lzssfpga/internal/obs"
)

// queueDepthBounds buckets the job queue's depth observed at enqueue;
// reorderBounds buckets the completions a request holds for an earlier
// index, observed at each completion.
var (
	queueDepthBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128}
	reorderBounds    = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128}
)

// engSink holds the registry handles for the engine_* family. Updates
// are per-job / per-submit, never per byte.
type engSink struct {
	requests     *obs.Counter
	jobs         *obs.Counter
	jobNs        *obs.Counter
	arenaGets    *obs.Counter
	arenaMisses  *obs.Counter
	queueDepth   *obs.Histogram
	reorderDepth *obs.Histogram
}

var engObs atomic.Pointer[engSink]

// SetObservability wires the package's engine_* metrics into reg (nil
// disables).
func SetObservability(reg *obs.Registry) {
	if reg == nil {
		engObs.Store(nil)
		return
	}
	engObs.Store(&engSink{
		requests:     reg.Counter(obs.EngineRequests),
		jobs:         reg.Counter(obs.EngineJobs),
		jobNs:        reg.Counter(obs.EngineShardBusyNs),
		arenaGets:    reg.Counter(obs.EngineArenaGets),
		arenaMisses:  reg.Counter(obs.EngineArenaMisses),
		queueDepth:   reg.Histogram(obs.EngineQueueDepth, queueDepthBounds),
		reorderDepth: reg.Histogram(obs.EngineReorderOccupancy, reorderBounds),
	})
}
