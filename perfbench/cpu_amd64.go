package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002–0x80000004.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b [48]byte
	for i := uint32(0); i < 3; i++ {
		a, bx, c, d := cpuid(0x80000002+i, 0)
		for j, v := range []uint32{a, bx, c, d} {
			binary.LittleEndian.PutUint32(b[i*16+uint32(j)*4:], v)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
}
