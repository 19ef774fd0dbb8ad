package ftm

import "resilientft/internal/telemetry"

// FTM series, resolved once at init. Stage histograms time the three
// slots of the Before-Proceed-After generic execution scheme; the
// checkpoint counters expose how often the PBR primary ships full state
// versus a delta, and how often the pair falls out of sync.
var (
	mStageBefore  = telemetry.Default().Histogram("ftm_stage_latency", "stage", "before")
	mStageProceed = telemetry.Default().Histogram("ftm_stage_latency", "stage", "proceed")
	mStageAfter   = telemetry.Default().Histogram("ftm_stage_latency", "stage", "after")

	mRequests   = telemetry.Default().Counter("ftm_requests_total")
	mReplayHits = telemetry.Default().Counter("ftm_replay_hits_total")

	mAssertEscalations = telemetry.Default().Counter("ftm_assert_escalations_total")

	mCkptFull       = telemetry.Default().Counter("ftm_checkpoint_total", "kind", "full")
	mCkptDelta      = telemetry.Default().Counter("ftm_checkpoint_total", "kind", "delta")
	mCkptFullBytes  = telemetry.Default().Counter("ftm_checkpoint_bytes_total", "kind", "full")
	mCkptDeltaBytes = telemetry.Default().Counter("ftm_checkpoint_bytes_total", "kind", "delta")

	mApplyFull  = telemetry.Default().Counter("ftm_checkpoint_applied_total", "kind", "full")
	mApplyDelta = telemetry.Default().Counter("ftm_checkpoint_applied_total", "kind", "delta")

	// Group-commit series: waves shipped, the requests they covered, the
	// waves whose ship failed outright (degraded mode is not a failure),
	// and the per-ship batch size distribution (the histogram's unit is a
	// raw count, not nanoseconds).
	mWavePBR         = telemetry.Default().Counter("ftm_commit_wave_total", "kind", "pbr")
	mWaveLFR         = telemetry.Default().Counter("ftm_commit_wave_total", "kind", "lfr")
	mWavePBRRequests = telemetry.Default().Counter("ftm_commit_wave_requests_total", "kind", "pbr")
	mWaveLFRRequests = telemetry.Default().Counter("ftm_commit_wave_requests_total", "kind", "lfr")
	mWavePBRFailed   = telemetry.Default().Counter("ftm_commit_wave_failed_total", "kind", "pbr")
	mWaveLFRFailed   = telemetry.Default().Counter("ftm_commit_wave_failed_total", "kind", "lfr")
	mCkptBatchSize   = telemetry.Default().Histogram("ftm_checkpoint_batch_size")
	// mWaveShipLatency times one covering ship, capture to acknowledgement.
	mWaveShipLatency = telemetry.Default().Histogram("ftm_wave_ship_latency")

	mResyncPrimary = telemetry.Default().Counter("ftm_resync_total", "side", "primary")
	mResyncBackup  = telemetry.Default().Counter("ftm_resync_total", "side", "backup")
	mDegraded      = telemetry.Default().Counter("ftm_degraded_total")
	// A master-alone PBR primary probes its peer before each full
	// checkpoint; an unreachable outcome is a degraded wave that built
	// nothing.
	mProbeUnreachable = telemetry.Default().Counter("ftm_checkpoint_probe_total", "outcome", "unreachable")
	mProbeReachable   = telemetry.Default().Counter("ftm_checkpoint_probe_total", "outcome", "reachable")

	mPromotions    = telemetry.Default().Counter("ftm_promotions_total")
	mDemotions     = telemetry.Default().Counter("ftm_demotions_total")
	mKills         = telemetry.Default().Counter("ftm_kills_total")
	mPeerSuspected = telemetry.Default().Counter("ftm_peer_suspected_total")
	mPeerRestored  = telemetry.Default().Counter("ftm_peer_restored_total")
)
