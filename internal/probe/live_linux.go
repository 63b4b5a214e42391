//go:build linux

package probe

import (
	"mmlpt/internal/packet"
)

// NewLiveProberConfig opens the raw-socket transport (see
// newRawTransport) with the given tunables — the knobs cmd/survey
// surfaces for live mode. It requires CAP_NET_RAW (typically root). The
// caller must Close the prober.
//
// Reply matching uses the Paris probe identity quoted inside ICMP
// errors and the echo identifier for direct probes (see Demux). This
// transport is exercised end-to-end against Fakeroute's wire format
// over a socketpair in tests; live operation additionally depends on
// kernel and network policy (rp_filter, firewalls) outside this
// package's control.
func NewLiveProberConfig(src, dst packet.Addr, cfg LiveConfig) (*LiveProber, error) {
	cfg.fill()
	tr, err := newRawTransport(cfg.MaxBatch)
	if err != nil {
		return nil, err
	}
	return newLiveProber(src, dst, tr, cfg), nil
}
