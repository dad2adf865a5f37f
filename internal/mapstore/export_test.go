package mapstore

import (
	"itmap/internal/core"
	"itmap/internal/simtime"
)

// AppendDocMesh is the map+mesh document append the model tests of package
// mapstore_test drive the store through; outside this package only
// campaigns (AppendMapMesh) and recovery reach that path.
func (s *Store) AppendDocMesh(at simtime.Time, doc *core.MapDocument, mesh *core.MeshDocument) (*Epoch, error) {
	return s.append(at, ingest{doc: doc, mesh: mesh})
}
