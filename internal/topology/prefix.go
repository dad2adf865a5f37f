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

// MaxPrefixID is the largest ID that names a /24: every wider one has bits
// no IPv4 /24 holds.
const MaxPrefixID PrefixID = 1<<24 - 1

// PrefixFromAddr returns the /24 containing an IPv4 address.
func PrefixFromAddr(a netip.Addr) (PrefixID, error) {
	if !a.Is4() {
		return 0, fmt.Errorf("topology: %v is not IPv4", a)
	}
	b := a.As4()
	return PrefixID(uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])), nil
}

// Addr returns the address with the given host byte inside this /24.
func (p PrefixID) Addr(host byte) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(p >> 16), byte(p >> 8), byte(p), host})
}

// String formats the prefix in CIDR notation, "a.b.c.0/24" — byte for byte
// what netip.PrefixFrom(p.Addr(0), 24).String() gives, without the trip
// through net/netip.
func (p PrefixID) String() string { return string(p.appendCIDR()) }

// octets spells every octet value: a table lookup, where strconv would
// divide for the ones above 99. Every map JSON render spells tens of
// thousands of prefixes.
var octets = func() (t [256]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

func (p PrefixID) appendCIDR() []byte {
	b := make([]byte, 0, len("255.255.255.0/24"))
	b = append(append(b, octets[p>>16&0xff]...), '.')
	b = append(append(b, octets[p>>8&0xff]...), '.')
	b = append(b, octets[p&0xff]...)
	return append(b, ".0/24"...)
}

// MarshalText is how JSON spells a prefix, as a value and as a map key:
// String's bytes. An ID wider than 24 bits names no /24 and has no spelling.
func (p PrefixID) MarshalText() ([]byte, error) {
	if p > MaxPrefixID {
		return nil, fmt.Errorf("topology: prefix ID %#x is wider than 24 bits", uint32(p))
	}
	return p.appendCIDR(), nil
}

// UnmarshalText parses a /24 in CIDR notation back to its ID. It is the one
// parser of a prefix's spelling, so a document's prefixes are parsed once,
// where JSON comes in. Leading zeros are tolerated and canonicalized
// ("01.0.0.0/24" is 1.0.0.0/24); a mask other than /24, an octet above 255
// or trailing garbage is an error.
func (p *PrefixID) UnmarshalText(s []byte) error {
	bad := func() error { return fmt.Errorf("topology: bad prefix %q", s) }
	i := 0
	octet := func() (int, bool) {
		start := i
		v := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			v = v*10 + int(s[i]-'0')
			if v > 1<<24 { // cap far above any octet/mask; avoids overflow
				return 0, false
			}
			i++
		}
		return v, i > start
	}
	a, ok := octet()
	if !ok || i >= len(s) || s[i] != '.' {
		return bad()
	}
	i++
	b, ok := octet()
	if !ok || i >= len(s) || s[i] != '.' {
		return bad()
	}
	i++
	c, ok := octet()
	if !ok || i+1 >= len(s) || s[i] != '.' || s[i+1] != '0' {
		return bad()
	}
	i += 2
	if i >= len(s) || s[i] != '/' {
		return bad()
	}
	i++
	bits, ok := octet()
	if !ok || i != len(s) {
		return bad()
	}
	if bits != 24 {
		return fmt.Errorf("topology: prefix %q is not a /24", s)
	}
	if a > 255 || b > 255 || c > 255 {
		return fmt.Errorf("topology: prefix %q has an out-of-range octet", s)
	}
	*p = PrefixID(a<<16 | b<<8 | c)
	return nil
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
