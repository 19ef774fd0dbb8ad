package detector

import "resilientft/internal/telemetry"

// Detector series. The φ gauge and inter-arrival histogram carry one
// series per peer process, labelled by its address (a host runs one
// watchdog per peer, however many replica groups it pairs); the
// transition counters split by direction so a flapping peer shows as
// paired suspicion/recovery increments while a hard crash shows one
// suspicion and one eviction. Suspicions split further by reason, so a
// crash witnessed by a refused beat reads apart from accrued silence.
var (
	mSuspicionsPhi     = telemetry.Default().Counter("detector_suspicions_total", "reason", ReasonPhi)
	mSuspicionsRefused = telemetry.Default().Counter("detector_suspicions_total", "reason", ReasonRefused)
	mRecoveries        = telemetry.Default().Counter("detector_recoveries_total")
	mEvictions         = telemetry.Default().Counter("detector_evictions_total")

	mHeartbeatsSent    = telemetry.Default().Counter("detector_heartbeats_sent_total")
	mHeartbeatsStalled = telemetry.Default().Counter("detector_heartbeats_stalled_total")
)

// peerPhiGauge resolves the milli-φ gauge of one peer (gauges are
// integral; φ is exported in thousandths).
func peerPhiGauge(peer string) *telemetry.Gauge {
	return telemetry.Default().Gauge("detector_phi_milli", "peer", peer)
}

// peerInterarrival resolves one peer's inter-arrival histogram, whose
// p50/p95/p99 the exporters derive.
func peerInterarrival(peer string) *telemetry.Histogram {
	return telemetry.Default().Histogram("detector_interarrival", "peer", peer)
}

// suspicionCounter resolves the suspicion counter of one reason.
func suspicionCounter(reason string) *telemetry.Counter {
	if reason == ReasonRefused {
		return mSuspicionsRefused
	}
	return mSuspicionsPhi
}
