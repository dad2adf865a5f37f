package mapstore

import (
	"itmap/internal/core"
	"itmap/internal/randx"
	"itmap/internal/simtime"
)

// AppendDocMesh is the map+mesh document append the model tests of package
// mapstore_test drive the store through; outside this package only
// campaigns (AppendMapMesh) and recovery reach that path.
func (s *Store) AppendDocMesh(at simtime.Time, doc *core.MapDocument, mesh *core.MeshDocument) (*Epoch, error) {
	return s.append(at, ingest{doc: doc, mesh: mesh})
}

// LegacyRecord is doc's journal record as a writer from before the grades
// and confidences were retired left it for a document that also held some,
// drawn from rng: the record the store writes for doc, with entries in both
// retired sections.
func LegacyRecord(doc *core.MapDocument, rng *randx.Source) ([]byte, error) {
	rec, err := encodeRecord(doc, nil)
	if err != nil {
		return nil, err
	}
	grades, conf := retiredSpans(rng)
	return withRetired(rec, grades, conf), nil
}
