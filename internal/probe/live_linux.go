//go:build linux

package probe

import (
	"mmlpt/internal/packet"
)

// NewLiveProber opens the raw-socket transport (see newRawTransport)
// with the live defaults: liveMaxBatch packets per syscall, a
// liveTimeout wait per wave and liveRetries re-sends. It requires
// CAP_NET_RAW (typically root). The caller must Close the prober.
//
// Reply matching uses the Paris probe identity quoted inside ICMP
// errors and the echo identifier for direct probes (see Demux). This
// transport is exercised end-to-end against Fakeroute's wire format
// over a socketpair in tests; live operation additionally depends on
// kernel and network policy (rp_filter, firewalls) outside this
// package's control.
func NewLiveProber(src, dst packet.Addr) (*LiveProber, error) {
	tr, err := newRawTransport(liveMaxBatch)
	if err != nil {
		return nil, err
	}
	return newLiveProber(src, dst, tr, liveConfig{Timeout: liveTimeout, Retries: liveRetries}), nil
}
