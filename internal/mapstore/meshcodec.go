package mapstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"itmap/internal/core"
)

// Mesh wire format (ITMB codec version 2; same primitives as version 1):
//
//	header  magic "ITMB" | codec version (2) | document version |
//	        agents | rounds | profile (len | raw bytes)
//	pairs   count | count × pair, sorted by canonical key with the key
//	        delta-encoded (first absolute, then strictly positive deltas)
//
//	pair    key delta | flags byte (bit0 = complete) | probes | lost |
//	        min/mean/max RTT + confidence (4 × float bits) |
//	        path len | path len × hop ASN (0 = hole)
//
// Like the map codec, every section is sorted and every integer minimal,
// so the encoding is a pure function of the document: decode followed by
// re-encode is byte-identical, which epoch-level structural sharing and
// the E26 worker-parity check rely on.

// MeshCodecVersion is the ITMB wire version carrying mesh sections.
const MeshCodecVersion = 2

// maxMeshPathLen bounds one pair's AS path on the wire. Simulated paths
// are a handful of hops; anything longer is corruption.
const maxMeshPathLen = 255

// meshPairMinBytes is the smallest possible encoded pair: four 1-byte
// varints (key delta, probes, lost, path len), the flags byte, and the
// four 8-byte floats.
const meshPairMinBytes = 4 + 1 + 32

// EncodeMeshDocument serializes a mesh document into ITMB v2 bytes. The
// input is not mutated; pairs are sorted into canonical key order during
// encoding, so the output is a pure function of the document's content.
func EncodeMeshDocument(doc *core.MeshDocument) ([]byte, error) {
	if doc == nil {
		return nil, fmt.Errorf("%w: nil mesh document", ErrEncode)
	}
	rec, err := encodeRecord(nil, doc)
	return rec.bytes, err
}

// mesh writes the mesh document's sections.
func (e *encoder) mesh(doc *core.MeshDocument) {
	if doc.Version < 0 || doc.Agents < 0 || doc.Rounds < 0 {
		e.fail("negative mesh header field")
	}
	e.raw(Magic[:])
	e.uvarint(MeshCodecVersion)
	e.uvarint(uint64(doc.Version))
	e.uvarint(uint64(doc.Agents))
	e.uvarint(uint64(doc.Rounds))
	e.uvarint(uint64(len(doc.Profile)))
	e.raw([]byte(doc.Profile))

	pairs := make([]core.MeshPairDocument, len(doc.Pairs))
	copy(pairs, doc.Pairs)
	slices.SortFunc(pairs, func(a, b core.MeshPairDocument) int { return cmp.Compare(a.Key(), b.Key()) })
	e.uvarint(uint64(len(pairs)))
	var prev uint64
	for i := range pairs {
		p := &pairs[i]
		if p.Lo == 0 || p.Lo >= p.Hi {
			e.fail("mesh pair (%d, %d) not canonical", p.Lo, p.Hi)
		}
		key := p.Key()
		if i > 0 && key == prev {
			e.fail("duplicate mesh pair (%d, %d)", p.Lo, p.Hi)
		}
		e.delta(&prev, key)
		var flags byte
		if p.Complete {
			flags |= 1
		}
		e.byte(flags)
		if p.Probes < 0 || p.Lost < 0 || p.Lost > p.Probes {
			e.fail("mesh pair (%d, %d) probe counts %d/%d", p.Lo, p.Hi, p.Lost, p.Probes)
		}
		e.uvarint(uint64(p.Probes))
		e.uvarint(uint64(p.Lost))
		e.float("mesh min RTT", p.MinRTT)
		e.float("mesh mean RTT", p.MeanRTT)
		e.float("mesh max RTT", p.MaxRTT)
		e.float("mesh confidence", p.Confidence)
		if len(p.Path) > maxMeshPathLen {
			e.fail("mesh pair (%d, %d) path length %d", p.Lo, p.Hi, len(p.Path))
		}
		e.uvarint(uint64(len(p.Path)))
		for _, hop := range p.Path {
			e.uvarint(uint64(hop))
		}
	}
}

// DecodeMeshDocument parses ITMB v2 bytes back into a mesh document. The
// result is canonical (sorted pairs, nil empty path slices), so re-encoding
// reproduces the input exactly. Corrupted, truncated, or oversized inputs
// return a typed error; decoding never panics.
func DecodeMeshDocument(data []byte) (*core.MeshDocument, error) {
	d := &decoder{buf: data}
	err := d.header(MeshCodecVersion)
	if err != nil {
		return nil, err
	}
	doc := &core.MeshDocument{}
	for _, h := range []struct {
		what string
		dst  *int
	}{{"document version", &doc.Version}, {"mesh agents", &doc.Agents}, {"mesh rounds", &doc.Rounds}} {
		v, err := d.uvarint(h.what)
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("%w: %s %d out of range", ErrCorrupt, h.what, v)
		}
		*h.dst = int(v)
	}
	if doc.Profile, err = d.str("mesh profile"); err != nil {
		return nil, err
	}

	n, err := d.count("mesh pairs", meshPairMinBytes)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		doc.Pairs = make([]core.MeshPairDocument, 0, n)
	}
	err = d.deltaSeq("mesh pair key", n, math.MaxUint64, func(key uint64) error {
		p := core.MeshPairDocument{Lo: uint32(key >> 32), Hi: uint32(key & 0xffffffff)}
		if p.Lo == 0 || p.Lo >= p.Hi {
			return fmt.Errorf("%w: mesh pair key %#x not canonical", ErrCorrupt, key)
		}
		flags, err := d.byteVal("mesh pair flags")
		if err != nil {
			return err
		}
		if flags > 1 {
			return fmt.Errorf("%w: mesh pair flags %#x", ErrCorrupt, flags)
		}
		p.Complete = flags&1 != 0
		probes, err := d.uvarint("mesh pair probes")
		if err != nil {
			return err
		}
		lost, err := d.uvarint("mesh pair lost")
		if err != nil {
			return err
		}
		if probes > math.MaxInt32 || lost > probes {
			return fmt.Errorf("%w: mesh pair probe counts %d/%d", ErrCorrupt, lost, probes)
		}
		p.Probes, p.Lost = int(probes), int(lost)
		for _, f := range []struct {
			what string
			dst  *float64
		}{{"mesh min RTT", &p.MinRTT}, {"mesh mean RTT", &p.MeanRTT}, {"mesh max RTT", &p.MaxRTT}, {"mesh confidence", &p.Confidence}} {
			if *f.dst, err = d.float(f.what); err != nil {
				return err
			}
		}
		hops, err := d.uvarint("mesh path length")
		if err != nil {
			return err
		}
		if hops > maxMeshPathLen {
			return fmt.Errorf("%w: mesh path length %d", ErrCorrupt, hops)
		}
		if hops > 0 {
			p.Path = make([]uint32, hops)
			for j := range p.Path {
				hop, err := d.uvarint("mesh path hop")
				if err != nil {
					return err
				}
				if hop > math.MaxUint32 {
					return fmt.Errorf("%w: mesh path hop %d out of range", ErrCorrupt, hop)
				}
				p.Path[j] = uint32(hop)
			}
		}
		doc.Pairs = append(doc.Pairs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	codecDecoded.Add(uint64(len(data)))
	return doc, nil
}
