package dnswire

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"
)

// withRawOpt appends an OPT additional record with the given rdata to an
// encoded query and bumps ARCOUNT — the way a buggy client emits a
// malformed EDNS0 option after a perfectly good question section.
func withRawOpt(base, rdata []byte) []byte {
	out := append([]byte(nil), base...)
	binary.BigEndian.PutUint16(out[10:], binary.BigEndian.Uint16(out[10:])+1)
	out = append(out, 0)                          // root owner name
	out = append(out, 0, 41, 0x10, 0, 0, 0, 0, 0) // TYPE=OPT, class/ttl
	out = append(out, byte(len(rdata)>>8), byte(len(rdata)))
	return append(out, rdata...)
}

// badECSOptions returns ECS options real fuzzers find in the wild: an
// option length running past the rdata, and an address bit count larger
// than the family allows.
func badECSOptions() [][]byte {
	return [][]byte{
		{0, 8, 0, 10, 0, 1},                    // truncated: olen 10, 2 bytes present
		{0, 8, 0, 8, 0, 1, 132, 0, 1, 2, 3, 4}, // oversized: 132 bits of IPv4
	}
}

// FuzzDecode exercises the wire decoder with arbitrary bytes: it must never
// panic, anything it accepts must re-encode and re-decode to an equivalent
// question section, and a malformed EDNS0 option after a parseable question
// must surface a partial message (so servers can answer FORMERR instead of
// dropping).
func FuzzDecode(f *testing.F) {
	seed, _ := NewQuery(7, "svc.example", false).
		WithECS(netip.MustParsePrefix("203.0.113.0/24")).Encode()
	f.Add(seed)
	resp := &Message{ID: 9, QR: true, QName: "a.example", QType: TypeA, QClass: ClassIN,
		Answers: []netip.Addr{netip.MustParseAddr("192.0.2.7")}, AnswerTTL: 30}
	seed2, _ := resp.Encode()
	f.Add(seed2)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	plain, _ := NewQuery(8, "svc.example", false).Encode()
	for _, opt := range badECSOptions() {
		f.Add(withRawOpt(plain, opt))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if errors.Is(err, ErrBadOption) && m == nil {
				t.Fatal("bad-option error without the partial message")
			}
			return
		}
		out, err := m.Encode()
		if err != nil {
			// Decoder accepted a name the encoder refuses (e.g. an
			// empty label sequence artifact) — acceptable only if
			// the name is genuinely unencodable; never a panic.
			return
		}
		m2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.QName != m.QName || m2.QType != m.QType || m2.ID != m.ID {
			t.Fatalf("round trip changed question: %+v vs %+v", m, m2)
		}
	})
}

// TestDecodeBadECSReturnsPartial pins the FORMERR contract: a malformed
// EDNS0 option after a valid question yields ErrBadOption plus the decoded
// question, never a bare error.
func TestDecodeBadECSReturnsPartial(t *testing.T) {
	base, err := NewQuery(77, "svc.example", false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i, opt := range badECSOptions() {
		m, err := Decode(withRawOpt(base, opt))
		if !errors.Is(err, ErrBadOption) {
			t.Fatalf("option %d: err = %v, want ErrBadOption", i, err)
		}
		if m == nil {
			t.Fatalf("option %d: no partial message", i)
		}
		if m.ID != 77 || m.QName != "svc.example" || m.QR {
			t.Fatalf("option %d: partial question mangled: %+v", i, m)
		}
	}
}
