package transport

import "resilientft/internal/telemetry"

// Process-wide traffic series. The per-endpoint Stats counters remain
// the per-address view; these aggregate across every endpoint in the
// process so the /metrics endpoint and the Monitoring Engine's probes
// see total transport behaviour. Resolved once at init: the message
// hot path only does atomic adds.
var (
	mMessagesSent     = telemetry.Default().Counter("transport_messages_sent_total")
	mMessagesReceived = telemetry.Default().Counter("transport_messages_received_total")
	mBytesSent        = telemetry.Default().Counter("transport_bytes_sent_total")
	mBytesReceived    = telemetry.Default().Counter("transport_bytes_received_total")

	// Coalesced-write series: one transport_write_syscalls_total tick per
	// batched net.Buffers write on a TCP connection, and the batch sizes
	// in ftm_wave_frames_per_write. messages_sent / write_syscalls is the
	// coalescing factor the wave shipping achieves.
	mWriteSyscalls  = telemetry.Default().Counter("transport_write_syscalls_total")
	mFramesPerWrite = telemetry.Default().Histogram("ftm_wave_frames_per_write")

	mEncodeFast = telemetry.Default().Counter("transport_encode_total", "path", "fast")
	mEncodeGob  = telemetry.Default().Counter("transport_encode_total", "path", "gob")
	mDecodeFast = telemetry.Default().Counter("transport_decode_total", "path", "fast")
	mDecodeGob  = telemetry.Default().Counter("transport_decode_total", "path", "gob")

	// mCorrupted counts payloads mutated by a LinkFault corruption
	// profile — deliveries that arrived, but wrong.
	mCorrupted = telemetry.Default().Counter("transport_corrupted_total")
)

// Drop reasons. Every discarded message increments
// transport_dropped_total{reason=...}; nothing vanishes silently.
const (
	DropLoss          = "loss"           // simulated one-way loss (memnet)
	DropPartition     = "partition"      // memnet partition blocked the route
	DropUnreachable   = "unreachable"    // no live endpoint at the destination
	DropClosed        = "closed"         // sender or receiver endpoint closed
	DropNoHandler     = "no-handler"     // no handler registered for the kind
	DropOversized     = "oversized"      // payload exceeded MaxEnvelope
	DropCodecMismatch = "codec-mismatch" // fast-coded data hit a gob-only type, or the reverse
	DropDecodeError   = "decode-error"   // payload failed to decode
	DropTCPDecode     = "tcp-decode"     // broken frame on a TCP connection
	DropCallLoss      = "call-loss"      // LinkFault dropped a call or reply leg
)

// dropCounters pre-registers a counter per reason so hot paths do not
// hit the registry.
var dropCounters = map[string]*telemetry.Counter{
	DropLoss:          telemetry.Default().Counter("transport_dropped_total", "reason", DropLoss),
	DropPartition:     telemetry.Default().Counter("transport_dropped_total", "reason", DropPartition),
	DropUnreachable:   telemetry.Default().Counter("transport_dropped_total", "reason", DropUnreachable),
	DropClosed:        telemetry.Default().Counter("transport_dropped_total", "reason", DropClosed),
	DropNoHandler:     telemetry.Default().Counter("transport_dropped_total", "reason", DropNoHandler),
	DropOversized:     telemetry.Default().Counter("transport_dropped_total", "reason", DropOversized),
	DropCodecMismatch: telemetry.Default().Counter("transport_dropped_total", "reason", DropCodecMismatch),
	DropDecodeError:   telemetry.Default().Counter("transport_dropped_total", "reason", DropDecodeError),
	DropTCPDecode:     telemetry.Default().Counter("transport_dropped_total", "reason", DropTCPDecode),
	DropCallLoss:      telemetry.Default().Counter("transport_dropped_total", "reason", DropCallLoss),
}

// CountDrop increments the process-wide drop counter for reason. Other
// packages (rpc request decoding, replica envelope handling) report
// their discarded messages through it so one series covers every path
// a message can vanish on.
func CountDrop(reason string) {
	if c, ok := dropCounters[reason]; ok {
		c.Inc()
		return
	}
	telemetry.Default().Counter("transport_dropped_total", "reason", reason).Inc()
}

// DropCount reads the current drop count for reason (testing and
// probes).
func DropCount(reason string) uint64 {
	if c, ok := dropCounters[reason]; ok {
		return c.Value()
	}
	c, ok := telemetry.Default().FindCounter("transport_dropped_total", "reason", reason)
	if !ok {
		return 0
	}
	return c.Value()
}
