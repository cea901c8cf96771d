// Package vmtp implements a VMTP-style transaction transport (Cheriton,
// RFC 1045) with the properties §4 of the Sirpent paper requires of a
// transport running over a network layer that offers no checksums, no
// TTL and no fragmentation:
//
//   - 64-bit entity identifiers unique independent of network addresses,
//     so misdelivered packets are recognized and discarded (§4.1);
//   - a 32-bit millisecond creation timestamp in every packet, enforcing
//     the maximum packet lifetime end-to-end with approximately
//     synchronized clocks instead of router-updated TTLs (§4.2);
//   - packet groups with selective retransmission and rate-based (paced)
//     transmission, handling large logical packets without network-layer
//     fragmentation (§4.3);
//   - transactional request/response with RTT estimation and failover
//     across alternate source routes (§6.3).
//
// The protocol exists once, in a driver-agnostic core (core.go) tuned
// by one Config. Two thin drivers supply what really differs: Endpoint
// runs it in virtual time on a sim.Engine, with a callback Call over
// alternate routes and a synchronous handler; RT runs it on the wall
// clock, with a blocking one-route Call and a handler goroutine per
// transaction, for real traffic (internal/gateway).
package vmtp

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"repro/internal/clock"
)

// HeaderLen is the encoded VMTP header size.
const HeaderLen = 40

// MaxGroupPackets is the packet-group size limit imposed by the 32-bit
// delivery mask.
const MaxGroupPackets = 32

// MaxPacketData is the default segment size: the paper sizes VIPER's
// 1500-byte unit as "roughly 1 kilobyte transport packet plus up to 500
// bytes of VIPER header information" (§5).
const MaxPacketData = 1024

// Kind discriminates VMTP packets.
type Kind uint8

const (
	KindRequest Kind = iota
	KindResponse
	KindAck // carries the receiver's delivery mask for selective retransmission
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindAck:
		return "ack"
	}
	return "?"
}

// Header is the VMTP packet header.
type Header struct {
	Client   uint64 // client entity identifier
	Server   uint64 // server entity identifier
	Txn      uint32 // transaction identifier
	Kind     Kind
	PktIndex uint8  // index within the packet group
	NPkts    uint8  // packets in the group
	Flags    uint8  // FlagProbe; other bits reserved
	Mask     uint32 // delivery mask (acks)
	TotalLen uint32 // total message length across the group
	// Timestamp is the creation time in milliseconds (§4.2); receivers
	// discard packets older than the acceptable maximum packet
	// lifetime.
	Timestamp clock.Timestamp
}

// FlagProbe marks a KindRequest packet as a status probe: it carries
// no data to place, and only elicits either the cached response (if
// the transaction completed) or a full-mask ack (if the request was
// received and the handler is still running). Clients send probes
// instead of data retransmissions once the full group is acked.
const FlagProbe uint8 = 0x01

// Packet is a VMTP header plus its data slice of the message.
type Packet struct {
	Header
	Data []byte
}

// Errors.
var (
	ErrShort       = errors.New("vmtp: short packet")
	ErrChecksum    = errors.New("vmtp: checksum mismatch")
	ErrGroupTooBig = errors.New("vmtp: message exceeds one packet group")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the packet with its trailing CRC-32C over header and
// data — the transport checksum Sirpent relies on ("Because Sirpent does
// not use a checksum", §4.1; VMTP carries checksum and timestamp in the
// trailer).
func (p *Packet) Encode() []byte {
	return p.encodeInto(make([]byte, HeaderLen+len(p.Data)))
}

// encodeInto is Encode into b, which must be HeaderLen+len(p.Data)
// bytes long.
func (p *Packet) encodeInto(b []byte) []byte {
	binary.BigEndian.PutUint64(b[0:8], p.Client)
	binary.BigEndian.PutUint64(b[8:16], p.Server)
	binary.BigEndian.PutUint32(b[16:20], p.Txn)
	b[20] = byte(p.Kind)
	b[21] = p.PktIndex
	b[22] = p.NPkts
	b[23] = p.Flags
	binary.BigEndian.PutUint32(b[24:28], p.Mask)
	binary.BigEndian.PutUint32(b[28:32], p.TotalLen)
	binary.BigEndian.PutUint32(b[32:36], uint32(p.Timestamp))
	copy(b[HeaderLen:], p.Data)
	// The checksum field is zero while the sum is computed over the
	// whole packet, then filled in.
	clear(b[36:40])
	sum := crc32.Checksum(b, crcTable)
	binary.BigEndian.PutUint32(b[36:40], sum)
	return b
}

// Decode parses and verifies an encoded packet.
func Decode(b []byte) (*Packet, error) {
	if len(b) < HeaderLen {
		return nil, ErrShort
	}
	// The sum covers the packet with its checksum field zeroed, as
	// Encode computed it; fold the zeros in rather than copying b.
	var zero [4]byte
	crc := crc32.Update(crc32.Checksum(b[:36], crcTable), crcTable, zero[:])
	if crc32.Update(crc, crcTable, b[HeaderLen:]) != binary.BigEndian.Uint32(b[36:40]) {
		return nil, ErrChecksum
	}
	p := &Packet{
		Header: Header{
			Client:    binary.BigEndian.Uint64(b[0:8]),
			Server:    binary.BigEndian.Uint64(b[8:16]),
			Txn:       binary.BigEndian.Uint32(b[16:20]),
			Kind:      Kind(b[20]),
			PktIndex:  b[21],
			NPkts:     b[22],
			Flags:     b[23],
			Mask:      binary.BigEndian.Uint32(b[24:28]),
			TotalLen:  binary.BigEndian.Uint32(b[28:32]),
			Timestamp: clock.Timestamp(binary.BigEndian.Uint32(b[32:36])),
		},
	}
	if len(b) > HeaderLen {
		p.Data = append([]byte(nil), b[HeaderLen:]...)
	}
	return p, nil
}

// Segment splits a message into equal-size per-packet chunks (last chunk
// may be shorter) such that each fits in maxData bytes. Equal chunking
// lets the receiver place packet i at offset i·ChunkSize(TotalLen,NPkts)
// without knowing the sender's configuration.
func Segment(msg []byte, maxData int) ([][]byte, error) {
	if maxData <= 0 {
		maxData = MaxPacketData
	}
	n := (len(msg) + maxData - 1) / maxData
	if n == 0 {
		n = 1
	}
	if n > MaxGroupPackets {
		return nil, ErrGroupTooBig
	}
	chunk := ChunkSize(len(msg), n)
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(msg) {
			hi = len(msg)
		}
		if lo > len(msg) {
			lo = len(msg)
		}
		out = append(out, msg[lo:hi])
	}
	return out, nil
}

// ChunkSize returns the per-packet chunk size for a message of totalLen
// bytes split into n packets.
func ChunkSize(totalLen, n int) int {
	if n <= 0 {
		return totalLen
	}
	return (totalLen + n - 1) / n
}
