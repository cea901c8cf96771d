//go:build !(linux && (amd64 || arm64))

package udpnet

import "net"

// recvSlots is how many datagrams one read returns: one, where no batch
// receive call is wired.
const recvSlots = 1

// newSendBatch returns the per-datagram writer.
func newSendBatch(conn *net.UDPConn) sendBatch { return perDatagramSend(conn) }

// newRecvBatch returns the per-datagram reader.
func newRecvBatch(conn *net.UDPConn, bufs [][]byte) recvBatch { return perDatagramRecv(conn, bufs) }
