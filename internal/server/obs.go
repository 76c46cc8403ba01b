package server

import (
	"sync/atomic"
	"time"

	"lzssfpga/internal/obs"
)

// byteBounds buckets request/response payload sizes.
var byteBounds = []int64{0, 64, 1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}

// latencyBounds buckets request latencies and per-stage durations in
// microseconds: 50µs to 10s, dense through the single-digit-millisecond
// range where the daemon actually lives so the interpolated quantiles
// stay sharp there.
var latencyBounds = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
	250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// stageMetricNames maps obs.Stage* indices onto the canonical per-stage
// histogram names.
var stageMetricNames = [obs.NumStages]string{
	obs.ServerStageSlotWaitUs,
	obs.ServerStageQueueWaitUs,
	obs.ServerStageCompressUs,
	obs.ServerStageReorderWaitUs,
	obs.ServerStageWriteUs,
}

// serverSink holds the registry handles of the server_* family. All
// updates are per-request or per-connection, never per byte.
type serverSink struct {
	conns        *obs.Counter
	requests     *obs.Counter
	busyRejects  *obs.Counter
	errors       *obs.Counter
	slowRequests *obs.Counter

	activeConns *obs.Gauge
	inflight    *obs.Gauge
	drainNs     *obs.Gauge

	requestBytes  *obs.Histogram
	responseBytes *obs.Histogram

	latencyUs *obs.Histogram
	stageUs   [obs.NumStages]*obs.Histogram
}

var srvObs atomic.Pointer[serverSink]

// inspector is the live request inspector shared by every Server in the
// process (the same scope as the metrics registry wiring); nil disables
// request collection.
var inspector atomic.Pointer[obs.Inspector]

// SetInspector wires the /debug/requests inspector into the serving
// path: every traced request is registered at Begin and filed into the
// recent/slowest rings at End. nil disables.
func SetInspector(in *obs.Inspector) {
	if in == nil {
		inspector.Store(nil)
		return
	}
	inspector.Store(in)
}

// Inspector returns the currently wired inspector, or nil.
func Inspector() *obs.Inspector { return inspector.Load() }

// SetObservability wires the package's server_* metrics into reg (nil
// disables). The latency quantile gauges (server_latency_p50/p90/p99)
// are derived from the latency histogram at scrape time via a registry
// hook — there is no sampling goroutine.
func SetObservability(reg *obs.Registry) {
	if reg == nil {
		srvObs.Store(nil)
		return
	}
	k := &serverSink{
		conns:         reg.Counter(obs.ServerConns),
		requests:      reg.Counter(obs.ServerRequests),
		busyRejects:   reg.Counter(obs.ServerBusyRejects),
		errors:        reg.Counter(obs.ServerErrors),
		slowRequests:  reg.Counter(obs.ServerSlowRequests),
		activeConns:   reg.Gauge(obs.ServerActiveConns),
		inflight:      reg.Gauge(obs.ServerInflight),
		drainNs:       reg.Gauge(obs.ServerDrainNs),
		requestBytes:  reg.Histogram(obs.ServerRequestBytes, byteBounds),
		responseBytes: reg.Histogram(obs.ServerResponseBytes, byteBounds),
		latencyUs:     reg.Histogram(obs.ServerLatencyUs, latencyBounds),
	}
	for i, name := range stageMetricNames {
		k.stageUs[i] = reg.Histogram(name, latencyBounds)
	}
	p50 := reg.Gauge(obs.ServerLatencyP50)
	p90 := reg.Gauge(obs.ServerLatencyP90)
	p99 := reg.Gauge(obs.ServerLatencyP99)
	reg.OnScrape("server_quantiles", func() {
		p50.Set(k.latencyUs.Quantile(0.50))
		p90.Set(k.latencyUs.Quantile(0.90))
		p99.Set(k.latencyUs.Quantile(0.99))
	})
	srvObs.Store(k)
}

// finishRequest freezes the trace and fans it out: stage and latency
// histograms, the slow/error log, and the inspector rings. engineWall
// is the request's whole service interval (engine call and response
// writes included — Finalize carves the writes out); out is the
// response payload size.
func (s *Server) finishRequest(rt *obs.RequestTrace, engineWall time.Duration, out int64) {
	if rt == nil {
		return
	}
	rt.Finalize(engineWall, out)
	if k := srvObs.Load(); k != nil {
		k.latencyUs.Observe(rt.TotalNs / 1_000)
		for i, h := range k.stageUs {
			h.Observe(rt.StageNs[i] / 1_000)
		}
	}
	s.logRequest(rt)
	inspector.Load().End(rt)
}
