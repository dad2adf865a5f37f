package mapstore

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"itmap/internal/core"
)

// checkPrefixKey fails unless s is exactly what topology.PrefixID.String
// renders for the prefix it names (the parser alone would let a leading
// zero through).
func checkPrefixKey(t *testing.T, section, s string) {
	t.Helper()
	p, err := core.ParsePrefix(s)
	if err != nil || p.String() != s {
		t.Fatalf("%s key %q is not a canonical prefix (parses to %v, %v)", section, s, p, err)
	}
}

// checkASNKey is checkPrefixKey for strconv.FormatUint-rendered ASN keys.
func checkASNKey(t *testing.T, section, s string) {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil || strconv.FormatUint(v, 10) != s {
		t.Fatalf("%s key %q is not a canonical ASN (parses to %d, %v)", section, s, v, err)
	}
}

// corruptions returns the wire-level mutations real fuzzers find first:
// truncations inside each section, bit flips in counts and deltas, and an
// oversized count that must be rejected before allocation.
func corruptions(enc []byte) [][]byte {
	out := [][]byte{
		enc[:0],
		enc[:3],                                // shorter than magic
		enc[:len(Magic)],                       // magic only
		enc[:len(enc)/2],                       // mid-section truncation
		enc[:len(enc)-1],                       // lost final byte
		append(append([]byte(nil), enc...), 0), // trailing byte
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(Magic)+2] ^= 0x40 // string-table count
	out = append(out, flipped)
	huge := append([]byte(nil), Magic[:]...)
	huge = append(huge, 1, 1, 0)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // absurd section count
	return append(out, huge)
}

// FuzzDecodeMapDocument pins the codec's safety contract: arbitrary bytes
// must never panic the decoder; anything it accepts must be the canonical
// encoding of the document it returns — re-encoding reproduces the input
// byte-for-byte, with the same section offsets, which ascend and partition
// the input — and every key the decoder rendered into its arena reads
// exactly as the stdlib renders it. Recovery adopts accepted bytes on the
// strength of this.
func FuzzDecodeMapDocument(f *testing.F) {
	full, err := EncodeDocument(sampleDoc())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	empty, err := EncodeDocument(&core.MapDocument{Version: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	for _, c := range corruptions(full) {
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, dec, err := decodeDocument(data)
		if err != nil {
			if !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		re, err := encodeDocument(doc)
		if err != nil {
			t.Fatalf("accepted document fails to re-encode: %v", err)
		}
		if !bytes.Equal(re.bytes, data) {
			t.Fatalf("decode→re-encode not byte-identical: %d vs %d bytes", len(re.bytes), len(data))
		}
		if dec.off != re.off {
			t.Fatalf("decoder recorded section offsets %v, encoder %v", dec.off, re.off)
		}
		// Header, then nine non-empty sections (each at least its count),
		// end to end: the offsets partition the input.
		rebuilt := append([]byte(nil), data[:dec.off[0]]...)
		for i := 0; i < wireSections; i++ {
			span := dec.off.span(data, i)
			if len(span) == 0 {
				t.Fatalf("section %d is empty: offsets %v not strictly ascending", i, dec.off)
			}
			rebuilt = append(rebuilt, span...)
		}
		if dec.off[0] < len(Magic)+2 || !bytes.Equal(rebuilt, data) {
			t.Fatalf("offsets %v do not partition the %d input bytes", dec.off, len(data))
		}
		for _, s := range doc.ActivePrefixes {
			checkPrefixKey(t, "active prefix", s)
		}
		for s := range doc.PrefixHitRates {
			checkPrefixKey(t, "hit-rate", s)
		}
		for s := range doc.Coverage {
			checkPrefixKey(t, "coverage", s)
		}
		for i := range doc.Servers {
			checkPrefixKey(t, "server", doc.Servers[i].Prefix)
		}
		for i := range doc.Mappings {
			checkPrefixKey(t, "mapping", doc.Mappings[i].Serving)
		}
		for s := range doc.ASActivity {
			checkASNKey(t, "activity", s)
		}
		for s := range doc.Sources {
			checkASNKey(t, "source", s)
		}
		for s := range doc.ASConfidence {
			checkASNKey(t, "confidence", s)
		}
	})
}
