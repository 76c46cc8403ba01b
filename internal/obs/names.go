package obs

// Canonical metric names — THE single source of truth for the naming
// scheme (docs/ARCHITECTURE.md §9 reproduces this table). Every
// exposition surface (the Prometheus /metrics endpoint, the expvar
// JSON at /debug/vars, and the "metrics" section of lzssbench -json
// reports) uses exactly these names for exactly the same registry
// values, so numbers can be compared across surfaces without mapping.
//
// Scheme: <layer>_<what>[_<unit>]_total for counters,
// <layer>_<what> for gauges and histograms. Layers:
//
//	lzss_*      software matcher (internal/lzss; sums the former
//	            per-matcher Stats across all matchers since enable)
//	deflate_*   Huffman/zlib layer: parallel pipeline + streaming writer
//	core_*      cycle-accurate hardware model (internal/core; the
//	            CycleStats stall breakdown of the paper's Fig 5)
//	logger_*    embedded logging frontend (internal/logger)
//	etherlink_* Ethernet staging link (internal/etherlink)
const (
	// lzss_* — matcher operation counters (the batched Matcher stats,
	// flushed at block/segment granularity) and two histograms.
	LZSSInputBytes   = "lzss_input_bytes_total"
	LZSSLiterals     = "lzss_literals_total"
	LZSSMatches      = "lzss_matches_total"
	LZSSMatchedBytes = "lzss_matched_bytes_total"
	LZSSHashComputes = "lzss_hash_computes_total"
	LZSSHeadReads    = "lzss_head_reads_total" // match probes
	LZSSChainSteps   = "lzss_chain_steps_total"
	LZSSCompareBytes = "lzss_compare_bytes_total"
	LZSSInserts      = "lzss_inserts_total"
	LZSSLazyEvals    = "lzss_lazy_evals_total"
	// LZSSProbeBatches counts candidate-gather passes of the batched
	// probe loop (generation-two hot path); zero under generation-one
	// parameter sets.
	LZSSProbeBatches = "lzss_probe_batches_total"
	// LZSSMatchLen buckets emitted match lengths (3..258);
	// LZSSChainDepth buckets candidates walked per FindMatch probe.
	LZSSMatchLen   = "lzss_match_len"
	LZSSChainDepth = "lzss_chain_depth"

	// deflate_* — parallel pipeline and streaming writer.
	DeflateParallelRuns = "deflate_parallel_runs_total"
	DeflateSegments     = "deflate_segments_total"
	DeflateInBytes      = "deflate_in_bytes_total"
	DeflateOutBytes     = "deflate_out_bytes_total"
	// DeflateQueueWaitUs buckets the time a segment sat in the job
	// queue before a worker picked it up, in microseconds.
	DeflateQueueWaitUs = "deflate_queue_wait_us"
	// DeflateWorkerBusyNs accumulates wall time workers spent
	// compressing segments (sum over workers, nanoseconds).
	DeflateWorkerBusyNs = "deflate_worker_busy_ns_total"
	// Pool accounting: hit rate = 1 - rebuilds/gets.
	DeflatePoolGets     = "deflate_pool_gets_total"
	DeflatePoolRebuilds = "deflate_pool_rebuilds_total"
	// Resilient-pipeline accounting: segments that exhausted their
	// retry budget and fell back to stored blocks, and worker panics
	// recovered by the per-segment guard.
	DeflateSegmentsDegraded      = "deflate_segments_degraded_total"
	DeflateWorkerPanicsRecovered = "deflate_worker_panics_recovered_total"
	// DeflateLastRatio is the input/output ratio of the most recent
	// parallel run.
	DeflateLastRatio = "deflate_last_ratio"
	// Streaming writer (deflate.Writer).
	DeflateStreamInBytes  = "deflate_stream_in_bytes_total"
	DeflateStreamOutBytes = "deflate_stream_out_bytes_total"
	DeflateStreamBlocks   = "deflate_stream_blocks_total"
	DeflateStreamFlushes  = "deflate_stream_flushes_total"

	// engine_* — the persistent compression engine (internal/engine):
	// request and job accounting, worker busy time, arena hit rate, and
	// queue-depth and reorder-occupancy distributions. EngineShardBusyNs
	// keeps its historical name (scrapes key on it); it sums every
	// worker's job time.
	EngineRequests    = "engine_requests_total"
	EngineJobs        = "engine_jobs_total"
	EngineShardBusyNs = "engine_shard_busy_ns_total"
	EngineArenaGets   = "engine_arena_gets_total"
	EngineArenaMisses = "engine_arena_misses_total"
	// EngineQueueDepth buckets the shared job queue's depth at each
	// enqueue; EngineReorderOccupancy buckets, at each completion, the
	// completions a request holds for an earlier index (0 means
	// segments streamed out strictly in order).
	EngineQueueDepth       = "engine_queue_depth"
	EngineReorderOccupancy = "engine_reorder_occupancy"

	// engine_cache_* — the content-addressed result cache in front of
	// the engine (internal/cache): hit/miss/coalesce accounting for the
	// hot-object tier, eviction churn, and the bytes/entries currently
	// held (gauges, refreshed at scrape). Coalesced counts requests that
	// attached to an in-flight identical compression instead of running
	// their own (singleflight); verify failures count paranoid-mode hits
	// whose cached stream no longer re-inflated to a valid body (the
	// entry is dropped and recomputed).
	EngineCacheHits           = "engine_cache_hits_total"
	EngineCacheMisses         = "engine_cache_misses_total"
	EngineCacheCoalesced      = "engine_cache_coalesced_total"
	EngineCacheEvictions      = "engine_cache_evictions_total"
	EngineCacheVerifyFailures = "engine_cache_verify_failures_total"
	EngineCacheBytes          = "engine_cache_bytes"
	EngineCacheEntries        = "engine_cache_entries"

	// dict_* — the preset-dictionary registry (internal/cache/dict):
	// dictionaries registered (gauge), requests that negotiated a
	// dictionary, negotiations that resolved (hits) and ones naming an
	// unknown ID (rejected StatusUnknownDict / HTTP 400). Per-dictionary
	// hit counts live in the /dicts listing, not the metric namespace.
	DictRegistered = "dict_registered"
	DictRequests   = "dict_requests_total"
	DictHits       = "dict_hits_total"
	DictUnknown    = "dict_unknown_total"

	// core_* — the hardware model's cycle ledger (CycleStats), flushed
	// once per modeled run. The six cycle counters are the Fig 5 stall
	// breakdown.
	CoreCyclesWait       = "core_cycles_wait_total"
	CoreCyclesOutput     = "core_cycles_output_total"
	CoreCyclesHashUpdate = "core_cycles_hash_update_total"
	CoreCyclesRotate     = "core_cycles_rotate_total"
	CoreCyclesFetch      = "core_cycles_fetch_total"
	CoreCyclesMatch      = "core_cycles_match_total"
	CoreInputBytes       = "core_input_bytes_total"
	CoreOutputBytes      = "core_output_bytes_total"
	CoreAttempts         = "core_attempts_total"
	CorePrefetchHits     = "core_prefetch_hits_total"
	CoreMatches          = "core_matches_total"
	CoreLiterals         = "core_literals_total"
	CoreMatchedBytes     = "core_matched_bytes_total"
	CoreChainSteps       = "core_chain_steps_total"
	CoreRotations        = "core_rotations_total"
	CoreSinkStalls       = "core_sink_stall_cycles_total"
	CoreSourceStalls     = "core_source_stall_cycles_total"
	// CoreCyclesPerByte is the headline cycles/byte of the most recent
	// modeled run (the paper averages ~2).
	CoreCyclesPerByte = "core_cycles_per_byte"

	// server_* — the lzssd serving layer (internal/server): connection
	// and request accounting across both fronts (HTTP and framed TCP).
	ServerConns       = "server_conns_total"
	ServerActiveConns = "server_active_conns"
	ServerRequests    = "server_requests_total"
	// ServerInflight is the number of requests currently holding an
	// engine slot; ServerBusyRejects counts requests bounced by the
	// max-in-flight backpressure gate (HTTP 429 / wire StatusBusy).
	ServerInflight    = "server_inflight_requests"
	ServerBusyRejects = "server_busy_rejects_total"
	// ServerErrors counts failed requests of every other kind: corrupt
	// frames, byte-cap rejections, malformed decompress input, write
	// failures to a vanished client.
	ServerErrors = "server_errors_total"
	// ServerRequestBytes / ServerResponseBytes bucket per-request
	// payload sizes in bytes; a response counts once its StatusOK (HTTP
	// 200) payload was written.
	ServerRequestBytes  = "server_request_bytes"
	ServerResponseBytes = "server_response_bytes"
	// ServerDrainNs is the wall time the last graceful drain took.
	ServerDrainNs = "server_drain_duration_ns"
	// ServerLatencyUs buckets whole-request service time (arrival to
	// response written) in microseconds, across both fronts; the
	// ServerStage* histograms bucket the five per-request stages of the
	// RequestTrace taxonomy (see internal/obs reqtrace.go and
	// docs/ARCHITECTURE.md §14) in the same unit. Their per-stage sums
	// never exceed the total: engine-side attribution is clamped to the
	// request's own wall time.
	ServerLatencyUs          = "server_latency_us"
	ServerStageSlotWaitUs    = "server_stage_slot_wait_us"
	ServerStageQueueWaitUs   = "server_stage_queue_wait_us"
	ServerStageCompressUs    = "server_stage_compress_us"
	ServerStageReorderWaitUs = "server_stage_reorder_wait_us"
	ServerStageWriteUs       = "server_stage_response_write_us"
	// ServerLatencyP* are in-process SLO quantile estimates in
	// microseconds, recomputed from ServerLatencyUs bucket interpolation
	// at every scrape (Registry.OnScrape).
	ServerLatencyP50 = "server_latency_p50"
	ServerLatencyP90 = "server_latency_p90"
	ServerLatencyP99 = "server_latency_p99"
	// ServerSlowRequests counts requests over the configured slow-log
	// threshold.
	ServerSlowRequests = "server_slow_requests_total"

	// cluster_* — the routing/balancing tier (internal/cluster): ring
	// routing, retry-on-alternate, circuit breakers, health probing and
	// rolling drains across a fleet of lzssd backends.
	ClusterRequests = "cluster_requests_total"
	// ClusterRetries counts attempts re-routed to a hash-ring alternate
	// after a retryable failure (poisoned conn, busy, draining, open
	// breaker); ClusterExhausted counts requests that failed every
	// alternate in their budget.
	ClusterRetries   = "cluster_retries_total"
	ClusterExhausted = "cluster_exhausted_total"
	// ClusterBackends is the configured member count; ClusterBackendsLive
	// the subset currently routable (serving health, breaker not open).
	ClusterBackends     = "cluster_backends"
	ClusterBackendsLive = "cluster_backends_live"
	// Breaker state transitions: closed→open trips, open→half-open
	// readmission probes, and half-open→closed recoveries.
	ClusterBreakerOpens  = "cluster_breaker_opens_total"
	ClusterBreakerProbes = "cluster_breaker_half_open_probes_total"
	ClusterBreakerCloses = "cluster_breaker_closes_total"
	// Active health probing and its failures.
	ClusterProbes        = "cluster_probes_total"
	ClusterProbeFailures = "cluster_probe_failures_total"
	// Rolling-drain orchestration: drains started and completed.
	ClusterDrains = "cluster_drains_total"
	// Connection churn toward the backends: multiplexed conns dialed and
	// conns torn down poisoned.
	ClusterConnsDialed   = "cluster_conns_dialed_total"
	ClusterConnsPoisoned = "cluster_conns_poisoned_total"

	// logger_* — embedded logging frontend.
	LoggerRecords  = "logger_records_total"
	LoggerRawBytes = "logger_raw_bytes_total"

	// runtime_* — process self-telemetry, refreshed from runtime/metrics
	// at every scrape (see RegisterRuntime): live goroutine count, heap
	// object bytes, and a GC pause histogram folded from the runtime's
	// own pause distribution (bucket upper bounds mapped onto
	// gcPauseBounds, so counts are exact and sums are upper-bound
	// approximations).
	RuntimeGoroutines = "runtime_goroutines"
	RuntimeHeapBytes  = "runtime_heap_bytes"
	RuntimeGCPauseNs  = "runtime_gc_pause_ns"

	// etherlink_* — staging-link framing and the ARQ recovery layer
	// (internal/resilience charges the last two: frames resent after a
	// lost/corrupted round, and frames the receiver discarded for a bad
	// FCS or sequence number).
	EtherlinkFrames          = "etherlink_frames_total"
	EtherlinkFrameBytes      = "etherlink_frame_bytes_total"
	EtherlinkFCSErrors       = "etherlink_fcs_errors_total"
	EtherlinkRetransmits     = "etherlink_retransmits_total"
	EtherlinkFramesCorrupted = "etherlink_frames_corrupted_total"
)
