//go:build linux && (amd64 || arm64)

package udpnet

import (
	"net"
	"os"
	"syscall"
	"unsafe"
)

// recvSlots is how many datagrams one recvmmsg call can return. With
// MaxDatagram-sized slots this keeps a bridge's receive buffers at
// 512 KiB.
const recvSlots = 8

// mmsghdr is struct mmsghdr from <sys/socket.h>: one message header
// plus the byte count the kernel reports for it. On 64-bit Linux the
// trailing pad keeps the array stride at the kernel's 64 bytes.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgSender batches one tunnel's datagrams into sendmmsg calls. It is
// owned by the tunnel's writer goroutine.
type mmsgSender struct {
	rc   syscall.RawConn
	v6   bool // the socket is AF_INET6 (IPv4 peers take mapped addresses)
	to   *net.UDPAddr
	sa4  syscall.RawSockaddrInet4
	sa6  syscall.RawSockaddrInet6
	hdrs []mmsghdr
	iovs []syscall.Iovec
}

// newSendBatch returns the sendmmsg writer for conn, or the
// per-datagram one if the socket exposes no raw descriptor.
func newSendBatch(conn *net.UDPConn) sendBatch {
	rc, err := conn.SyscallConn()
	if err != nil {
		return perDatagramSend(conn)
	}
	w := &mmsgSender{rc: rc}
	rc.Control(func(fd uintptr) {
		sa, _ := syscall.Getsockname(int(fd))
		_, w.v6 = sa.(*syscall.SockaddrInet6)
	})
	return w.send
}

// sockaddr encodes the peer address for the socket's family, caching it
// across batches to the same peer.
func (w *mmsgSender) sockaddr(to *net.UDPAddr) (*byte, uint32, error) {
	if to != w.to {
		w.to = nil
		if w.v6 {
			ip := to.IP.To16()
			if ip == nil {
				return nil, 0, &net.AddrError{Err: "invalid IP address", Addr: to.String()}
			}
			w.sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
			copy(w.sa6.Addr[:], ip)
			putPort(&w.sa6.Port, to.Port)
			if to.Zone != "" {
				ifi, err := net.InterfaceByName(to.Zone)
				if err != nil {
					return nil, 0, err
				}
				w.sa6.Scope_id = uint32(ifi.Index)
			}
		} else {
			ip := to.IP.To4()
			if ip == nil {
				return nil, 0, &net.AddrError{Err: "non-IPv4 address", Addr: to.String()}
			}
			w.sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
			copy(w.sa4.Addr[:], ip)
			putPort(&w.sa4.Port, to.Port)
		}
		w.to = to
	}
	if w.v6 {
		return (*byte)(unsafe.Pointer(&w.sa6)), syscall.SizeofSockaddrInet6, nil
	}
	return (*byte)(unsafe.Pointer(&w.sa4)), syscall.SizeofSockaddrInet4, nil
}

// putPort stores a port in network byte order.
func putPort(dst *uint16, port int) {
	b := (*[2]byte)(unsafe.Pointer(dst))
	b[0], b[1] = byte(port>>8), byte(port)
}

func (w *mmsgSender) send(dgs [][]byte, to *net.UDPAddr) (int, error) {
	name, namelen, err := w.sockaddr(to)
	if err != nil {
		return 0, err
	}
	if len(dgs) > len(w.hdrs) {
		w.hdrs = make([]mmsghdr, len(dgs))
		w.iovs = make([]syscall.Iovec, len(dgs))
	}
	for i, dg := range dgs {
		w.iovs[i] = syscall.Iovec{Base: unsafe.SliceData(dg)}
		w.iovs[i].SetLen(len(dg))
		w.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{Name: name, Namelen: namelen, Iov: &w.iovs[i], Iovlen: 1}}
	}
	var sent int
	var errno syscall.Errno
	err = w.rc.Write(func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&w.hdrs[0])), uintptr(len(dgs)), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false // wait for the socket to drain, then retry
		}
		sent, errno = int(r), e
		return true
	})
	clear(w.hdrs[:len(dgs)])
	clear(w.iovs[:len(dgs)])
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, os.NewSyscallError("sendmmsg", errno)
	}
	return sent, nil
}

// newRecvBatch returns the recvmmsg reader filling bufs, or the
// per-datagram one if the socket exposes no raw descriptor.
func newRecvBatch(conn *net.UDPConn, bufs [][]byte) recvBatch {
	rc, err := conn.SyscallConn()
	if err != nil {
		return perDatagramRecv(conn, bufs)
	}
	hdrs := make([]mmsghdr, len(bufs))
	iovs := make([]syscall.Iovec, len(bufs))
	for i, b := range bufs {
		iovs[i] = syscall.Iovec{Base: unsafe.SliceData(b)}
		iovs[i].SetLen(len(b))
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
	}
	return func(lens []int) (int, error) {
		var got int
		var errno syscall.Errno
		err := rc.Read(func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), 0, 0, 0)
			if e == syscall.EAGAIN {
				return false // wait for a datagram, then retry
			}
			got, errno = int(r), e
			return true
		})
		if err != nil {
			return 0, err
		}
		if errno != 0 {
			return 0, os.NewSyscallError("recvmmsg", errno)
		}
		for i := 0; i < got; i++ {
			lens[i] = int(hdrs[i].n)
		}
		return got, nil
	}
}
