package mapstore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"itmap/internal/core"
)

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
	huge = append(huge, CodecVersion, 1, 0)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // absurd section count
	return append(out, huge)
}

// FuzzDecodeMapDocument pins the codec's safety contract: arbitrary bytes
// must never panic the decoder; anything it accepts must be the canonical
// encoding of the document it returns — re-encoding reproduces the input
// byte-for-byte, with the same offsets, and the offsets ascend and
// partition it. Recovery adopts accepted bytes on the strength of this.
func FuzzDecodeMapDocument(f *testing.F) {
	rec, err := encodeRecord(sampleDoc(), nil)
	if err != nil {
		f.Fatal(err)
	}
	full := rec.bytes
	f.Add(full)
	empty, err := EncodeDocument(&core.MapDocument{Version: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	for _, c := range corruptions(full) {
		f.Add(c)
	}
	f.Add(versionOne(rec))

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, dec, err := decodeDocument(data)
		if err != nil {
			if !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		re, err := encodeRecord(doc, nil)
		if err != nil {
			t.Fatalf("accepted document fails to re-encode: %v", err)
		}
		if !bytes.Equal(re.bytes, data) {
			t.Fatalf("decode→re-encode not byte-identical: %d vs %d bytes", len(re.bytes), len(data))
		}
		if dec.off != re.off {
			t.Fatalf("decoder recorded section offsets %v, encoder %v", dec.off, re.off)
		}
		// Header, then seven non-empty sections (each at least its count),
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
	})
}

// epochPayloadSeeds are the shapes a journaled epoch payload can take, well
// formed and not, with the error each must decode to (nil: accepted).
func epochPayloadSeeds(t testing.TB) []struct {
	name    string
	payload []byte
	want    error
} {
	t.Helper()
	mapRec, err := encodeRecord(sampleDoc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mapEnc := mapRec.bytes
	meshEnc, err := EncodeMeshDocument(sampleMesh())
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		payload []byte
		want    error
	}{
		{"map only", mapEnc, nil},
		{"map, mesh", slices.Concat(mapEnc, meshEnc), nil},
		{"map, truncated mesh", slices.Concat(mapEnc, meshEnc[:len(meshEnc)-1]), ErrTruncated},
		{"map, mesh, junk", slices.Concat(mapEnc, meshEnc, []byte("junk")), ErrCorrupt},
		{"mesh only", meshEnc, ErrVersion},
		{"two maps", slices.Concat(mapEnc, mapEnc), ErrVersion},
		{"map, then not ITMB", slices.Concat(mapEnc, []byte("junk")), ErrMagic},
		{"version 1 map", versionOne(mapRec), ErrVersion},
		{"version 1 map, mesh", slices.Concat(versionOne(mapRec), meshEnc), ErrVersion},
	}
}

// TestDecodeEpochPayloadSeeds: each malformed shape is refused with the
// typed error that names what is wrong with it, an accepted one comes with
// its record to adopt, and the public map decoder still takes nothing but a
// map — a journaled map‖mesh payload is trailing bytes to it.
func TestDecodeEpochPayloadSeeds(t *testing.T) {
	for _, seed := range epochPayloadSeeds(t) {
		in, err := decodeRecord(seed.payload)
		if !errors.Is(err, seed.want) {
			t.Errorf("%s: decodeRecord = %v, want %v", seed.name, err, seed.want)
		}
		if err == nil && !bytes.Equal(in.rec.bytes, seed.payload) {
			t.Errorf("%s: record not adopted", seed.name)
		}
		mapOnly := bytes.Equal(seed.payload, epochPayloadSeeds(t)[0].payload)
		if err == nil && (in.mesh != nil) == mapOnly {
			t.Errorf("%s: mesh present = %v", seed.name, in.mesh != nil)
		}
		if _, err := DecodeDocument(seed.payload); (err == nil) != mapOnly {
			t.Errorf("%s: DecodeDocument = %v; it takes a map and nothing past it", seed.name, err)
		}
	}
}

// FuzzDecodeEpochPayload pins the trust boundary recovery crosses: whatever
// a journal record's payload holds, decoding it never panics and fails only
// with the codec's typed errors; and an accepted payload is the canonical
// record of the documents decoded from it — the map's encoding, then the
// mesh's — with the same section offsets, so adopting it is the same as
// re-encoding.
func FuzzDecodeEpochPayload(f *testing.F) {
	for _, seed := range epochPayloadSeeds(f) {
		f.Add(seed.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		dec := encoding{bytes: data}
		if err := decodeInto(&core.MapDocument{}, &dec, true); err != nil {
			t.Fatalf("decodeRecord accepts the payload, decodeInto refuses its map: %v", err)
		}
		re, err := encodeRecord(in.doc, in.mesh)
		if err != nil || !bytes.Equal(re.bytes, data) || re.off != dec.off {
			t.Fatalf("payload is not the canonical record of its documents (%v)", err)
		}
		if !bytes.Equal(in.rec.bytes, data) || in.rec.off != dec.off {
			t.Fatalf("record not adopted: offsets %v and %v", in.rec.off, dec.off)
		}
		if (in.mesh != nil) != (len(dec.off.span(data, wireMesh)) > 0) {
			t.Fatalf("mesh document present %v, mesh span %v", in.mesh != nil, dec.off)
		}
		if _, err := DecodeDocument(data); in.mesh != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeDocument on map‖mesh = %v, want trailing bytes refused", err)
		}
	})
}
