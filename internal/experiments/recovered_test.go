package experiments

import (
	"reflect"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore"
	"itmap/internal/mapstore/wal"
	"itmap/internal/world"
)

// TestClaimsHoldOnRecoveredDocument pins the paper's claims to the bytes that
// are served: T1, E5, E15 and E20 computed on a map whose document was
// journaled and recovered equal the same experiments on the in-process map.
func TestClaimsHoldOnRecoveredDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four experiments twice on a tiny world")
	}
	w := world.Build(world.Tiny(5))
	built := NewEnvFromWorld(w)
	mem := wal.NewMemFS()
	jw, _, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	st := mapstore.NewStore()
	st.AttachWAL(jw)
	if _, err := st.AppendMap(0, built.Map(), nil); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	jw, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := mapstore.RecoverStore(jw, rec)
	if err != nil {
		t.Fatal(err)
	}
	served := NewEnvFromWorld(w)
	tm := &core.TrafficMap{MapDocument: *recovered.Latest().Doc, Top: w.Top, Scan: served.Scan()}
	served.trafMap = func() *core.TrafficMap { return tm }
	for _, run := range []func(*Env) *Result{(*Env).RunTable1, (*Env).RunE5, (*Env).RunE15, (*Env).RunE20} {
		if got, want := run(served), run(built); !reflect.DeepEqual(got, want) {
			t.Errorf("%s on the recovered document:\n%s\nin process:\n%s", want.ID, Format([]*Result{got}), Format([]*Result{want}))
		}
	}
}
