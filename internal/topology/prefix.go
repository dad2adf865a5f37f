package topology

import (
	"fmt"
	"net/netip"
	"strconv"
)

// PrefixID identifies one /24 of IPv4 address space: the top 24 bits of the
// network address (i.e. addr>>8). Dense numeric IDs keep the simulator's
// per-prefix maps compact; convert to netip.Prefix at the API edge.
type PrefixID uint32

// PrefixFromAddr returns the /24 containing an IPv4 address.
func PrefixFromAddr(a netip.Addr) (PrefixID, error) {
	if !a.Is4() {
		return 0, fmt.Errorf("topology: %v is not IPv4", a)
	}
	b := a.As4()
	return PrefixID(uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])), nil
}

// Prefix returns the /24 as a netip.Prefix.
func (p PrefixID) Prefix() netip.Prefix {
	return netip.PrefixFrom(p.Addr(0), 24)
}

// Addr returns the address with the given host byte inside this /24.
func (p PrefixID) Addr(host byte) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(p >> 16), byte(p >> 8), byte(p), host})
}

// String formats the prefix in CIDR notation, "a.b.c.0/24" — byte for byte
// what p.Prefix().String() gives, without the trip through net/netip: every
// document key and active-prefix entry of every epoch is one of these.
func (p PrefixID) String() string {
	b := make([]byte, 0, len("255.255.255.0/24"))
	b = strconv.AppendUint(b, uint64(p>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(p>>8&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(p&0xff), 10)
	b = append(b, ".0/24"...)
	return string(b)
}

// PrefixAllocator hands out contiguous runs of /24s. Allocation starts at
// 1.0.0.0/24 and skips the blocks reserved in the real Internet so that
// rendered addresses look plausible.
type PrefixAllocator struct {
	next PrefixID
}

// NewPrefixAllocator returns an allocator positioned at 1.0.0.0/24.
func NewPrefixAllocator() *PrefixAllocator {
	return &PrefixAllocator{next: 1 << 16} // 1.0.0.0/24
}

// reserved reports whether the /24 falls in space we should not allocate
// (loopback, RFC1918, multicast and beyond, 0/8).
func reserved(p PrefixID) bool {
	firstOctet := uint32(p) >> 16
	switch {
	case firstOctet == 0, firstOctet == 10, firstOctet == 127:
		return true
	case firstOctet >= 224: // multicast + reserved
		return true
	case firstOctet == 172 && (uint32(p)>>8)&0xff >= 16 && (uint32(p)>>8)&0xff < 32:
		return true
	case firstOctet == 192 && (uint32(p)>>8)&0xff == 168:
		return true
	case firstOctet == 169 && (uint32(p)>>8)&0xff == 254:
		return true
	default:
		return false
	}
}

// Alloc returns n consecutive allocatable /24s.
func (al *PrefixAllocator) Alloc(n int) []PrefixID {
	out := make([]PrefixID, 0, n)
	for len(out) < n {
		for reserved(al.next) {
			al.next++
		}
		out = append(out, al.next)
		al.next++
	}
	return out
}
