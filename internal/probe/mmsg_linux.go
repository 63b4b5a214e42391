//go:build linux

package probe

import (
	"syscall"
	"time"
	"unsafe"

	"mmlpt/internal/packet"
)

// mmsgTransport is the production batchTransport: whole waves of
// packets cross the kernel boundary in single sendmmsg/recvmmsg calls
// over a pre-allocated arena of buffers, iovecs and message headers, so
// the syscall count per MDA round is a small constant and the receive
// path reuses one set of buffers forever instead of allocating 1500
// bytes per wait.
//
// The same type serves two wirings: the raw-socket pair of the live
// prober (IPPROTO_RAW + IP_HDRINCL for sends, IPPROTO_ICMP for
// receives, per-packet destination addresses) and a connected socket
// that takes no destination address, which the package's tests wire
// over an AF_UNIX datagram socketpair to drive the identical machinery
// without CAP_NET_RAW.
//
// On architectures without pinned mmsg syscall numbers (sysSENDMMSG ==
// 0) every batch degrades to per-packet sendto/recvfrom — functionally
// identical, one syscall per packet.
type mmsgTransport struct {
	sendFD, recvFD int
	// connected sockets (the socketpair wiring) take no per-packet
	// destination address.
	connected bool
	maxBatch  int
	syscalls  uint64

	// Send arena.
	siovs  []syscall.Iovec
	shdrs  []mmsghdr
	snames []syscall.RawSockaddrInet4

	// Receive arena.
	rbufs [][]byte
	riovs []syscall.Iovec
	rhdrs []mmsghdr

	useMMsg bool
}

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// per-message byte count. Trailing padding on 64-bit targets is added
// by the compiler (struct sizes round up to field alignment), so the
// layout matches C on every GOARCH.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
}

const (
	// msgWaitForOne makes recvmmsg return after the first datagram
	// arrives instead of blocking until the full vector fills.
	msgWaitForOne = 0x10000
	// recvBufLen is each receive slot's size; ICMP replies to our
	// probes fit in an MTU.
	recvBufLen = 1500
)

// newMMsgTransport builds the arena around two (possibly identical)
// open file descriptors. It takes ownership: Close closes them.
func newMMsgTransport(sendFD, recvFD int, connected bool, maxBatch int) *mmsgTransport {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	t := &mmsgTransport{
		sendFD: sendFD, recvFD: recvFD,
		connected: connected, maxBatch: maxBatch,
		useMMsg: sysSENDMMSG != 0 && maxBatch > 1,
		siovs:   make([]syscall.Iovec, maxBatch),
		shdrs:   make([]mmsghdr, maxBatch),
		snames:  make([]syscall.RawSockaddrInet4, maxBatch),
		rbufs:   make([][]byte, maxBatch),
		riovs:   make([]syscall.Iovec, maxBatch),
		rhdrs:   make([]mmsghdr, maxBatch),
	}
	for i := range t.rbufs {
		t.rbufs[i] = make([]byte, recvBufLen)
		t.riovs[i].Base = &t.rbufs[i][0]
		t.riovs[i].SetLen(recvBufLen)
		t.rhdrs[i].Hdr.Iov = &t.riovs[i]
		t.rhdrs[i].Hdr.Iovlen = 1
	}
	return t
}

// SendBatch implements batchTransport with one sendmmsg per maxBatch
// packets (or per-packet sendto on fallback architectures).
func (t *mmsgTransport) SendBatch(pkts [][]byte, dsts []packet.Addr) (int, error) {
	sent := 0
	for sent < len(pkts) {
		n := len(pkts) - sent
		if n > t.maxBatch {
			n = t.maxBatch
		}
		if !t.useMMsg {
			m, err := t.sendSlow(pkts[sent:sent+n], dsts[sent:sent+n])
			sent += m
			if err != nil || m < n {
				return sent, err
			}
			continue
		}
		for k := 0; k < n; k++ {
			pkt := pkts[sent+k]
			t.siovs[k].Base = &pkt[0]
			t.siovs[k].SetLen(len(pkt))
			h := &t.shdrs[k]
			h.Hdr.Iov = &t.siovs[k]
			h.Hdr.Iovlen = 1
			if t.connected {
				h.Hdr.Name = nil
				h.Hdr.Namelen = 0
			} else {
				sa := &t.snames[k]
				a := dsts[sent+k]
				sa.Family = syscall.AF_INET
				sa.Addr = [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
				h.Hdr.Name = (*byte)(unsafe.Pointer(sa))
				h.Hdr.Namelen = syscall.SizeofSockaddrInet4
			}
			h.Len = 0
		}
		t.syscalls++
		m, _, errno := syscall.Syscall6(sysSENDMMSG, uintptr(t.sendFD),
			uintptr(unsafe.Pointer(&t.shdrs[0])), uintptr(n), 0, 0, 0)
		if errno != 0 {
			if errno == syscall.EINTR {
				continue
			}
			return sent, errno
		}
		sent += int(m)
		if int(m) < n {
			// The kernel refused the tail; report the prefix and let the
			// retry machinery re-send the rest later.
			return sent, nil
		}
	}
	return sent, nil
}

// sendSlow is the per-packet fallback send path.
func (t *mmsgTransport) sendSlow(pkts [][]byte, dsts []packet.Addr) (int, error) {
	for k := range pkts {
		t.syscalls++
		var err error
		if t.connected {
			_, err = syscall.Write(t.sendFD, pkts[k])
		} else {
			a := dsts[k]
			sa := syscall.SockaddrInet4{
				Addr: [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)},
			}
			err = syscall.Sendto(t.sendFD, pkts[k], 0, &sa)
		}
		if err != nil {
			return k, err
		}
	}
	return len(pkts), nil
}

func (t *mmsgTransport) setRecvTimeout(d time.Duration) error {
	t.syscalls++
	tv := syscall.NsecToTimeval(d.Nanoseconds())
	return syscall.SetsockoptTimeval(t.recvFD, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv)
}

// RecvSome implements batchTransport: one recvmmsg burst (or one
// recvfrom on fallback architectures) per call, bounded by the
// deadline via SO_RCVTIMEO.
func (t *mmsgTransport) RecvSome(deadline time.Time, deliver func(pkt []byte)) error {
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		if err := t.setRecvTimeout(remain); err != nil {
			return err
		}
		if !t.useMMsg {
			t.syscalls++
			n, _, err := syscall.Recvfrom(t.recvFD, t.rbufs[0], 0)
			if err != nil {
				if err == syscall.EAGAIN || err == syscall.EINTR {
					continue
				}
				return err
			}
			deliver(t.rbufs[0][:n])
			return nil
		}
		t.syscalls++
		n, _, errno := syscall.Syscall6(sysRECVMMSG, uintptr(t.recvFD),
			uintptr(unsafe.Pointer(&t.rhdrs[0])), uintptr(len(t.rhdrs)),
			msgWaitForOne, 0, 0)
		if errno != 0 {
			if errno == syscall.EAGAIN || errno == syscall.EINTR {
				continue
			}
			return errno
		}
		for i := 0; i < int(n); i++ {
			l := int(t.rhdrs[i].Len)
			if l > len(t.rbufs[i]) {
				l = len(t.rbufs[i])
			}
			deliver(t.rbufs[i][:l])
		}
		return nil
	}
}

// Syscalls implements batchTransport.
func (t *mmsgTransport) Syscalls() uint64 { return t.syscalls }

// Close implements batchTransport.
func (t *mmsgTransport) Close() error {
	err := syscall.Close(t.sendFD)
	if t.recvFD != t.sendFD {
		if e := syscall.Close(t.recvFD); err == nil {
			err = e
		}
	}
	return err
}

// newRawTransport opens the live raw-socket pair: one IPPROTO_RAW
// socket with IP_HDRINCL for sending fully crafted probes, and one
// IPPROTO_ICMP raw socket for receiving replies. Requires CAP_NET_RAW.
func newRawTransport(maxBatch int) (*mmsgTransport, error) {
	send, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_RAW)
	if err != nil {
		return nil, &transportError{"raw send socket (need CAP_NET_RAW)", err}
	}
	if err := syscall.SetsockoptInt(send, syscall.IPPROTO_IP, syscall.IP_HDRINCL, 1); err != nil {
		syscall.Close(send)
		return nil, &transportError{"IP_HDRINCL", err}
	}
	recv, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_ICMP)
	if err != nil {
		syscall.Close(send)
		return nil, &transportError{"raw recv socket", err}
	}
	return newMMsgTransport(send, recv, false, maxBatch), nil
}

// transportError attaches the failing operation to a socket error.
type transportError struct {
	op  string
	err error
}

func (e *transportError) Error() string { return "probe: " + e.op + ": " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }
