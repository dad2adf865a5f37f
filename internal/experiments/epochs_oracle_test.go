package experiments

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"itmap/internal/mapstore"
	obspkg "itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/simtime"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

// The parent commit's three campaign→store functions, verbatim but for the
// oracle prefix (BuildEpochStore now names their one successor): the
// map-only pair, and the mesh variant with its own copy of the day loop.

func oracleBuildEpochStore(w *world.World, days, workers int) (*mapstore.Store, error) {
	st := mapstore.NewStore()
	if err := oracleBuildEpochStoreInto(st, w, days, workers); err != nil {
		return nil, err
	}
	return st, nil
}

func oracleBuildEpochStoreInto(st *mapstore.Store, w *world.World, days, workers int) error {
	envs := EpochEnvs(w, days, workers)
	// One trace per campaign day; Activate happens at serial points, so every
	// span a day's sweeps record lands in that day's tree.
	obspkg.ActivateTrace("epoch-0")
	mx := envs[0].Matrix()
	for d, e := range envs {
		obspkg.ActivateTrace("epoch-" + strconv.Itoa(d))
		if _, err := st.AppendMap(simtime.Time(d)*simtime.Day, e.Map(), mx); err != nil {
			return err
		}
	}
	return nil
}

func oracleBuildEpochStoreMeshInto(st *mapstore.Store, w *world.World, days, workers int, spec MeshSpec) error {
	if days < 1 {
		days = 1
	}
	vantage.RegisterMetrics()
	envs := EpochEnvs(w, days, workers)
	obspkg.ActivateTrace("epoch-0")
	mx := envs[0].Matrix()
	for d, e := range envs {
		obspkg.ActivateTrace("epoch-" + strconv.Itoa(d))
		at := simtime.Time(d) * simtime.Day
		mesh, _ := RunMeshCampaign(w, spec, at, workers)
		if _, err := st.AppendMapMesh(at, e.Map(), mx, mesh); err != nil {
			return err
		}
	}
	return nil
}

// TestBuildEpochStoreMatchesParentBuilders: the one builder leaves the store
// and the process's stable metrics exactly as the parent's builder for that
// mode did — map-only (where the fleet's metric families must stay
// unregistered) and mesh, at 1 and 4 workers, on two seeds.
func TestBuildEpochStoreMatchesParentBuilders(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sixteen tiny-world epoch stores")
	}
	const days = 2
	type built struct {
		st         *mapstore.Store
		exposition string
	}
	// in runs one build against fresh obs + history state.
	in := func(build func() (*mapstore.Store, error)) built {
		t.Helper()
		prevObs := obspkg.Swap(obspkg.NewSet())
		defer obspkg.Swap(prevObs)
		prevRing := history.Swap(history.NewRing(0))
		defer history.Swap(prevRing)
		st, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return built{st, obspkg.Metrics().StableExposition()}
	}
	mesh := MeshSpec{Agents: 24, Rounds: 2}
	for _, seed := range []int64{7, 11} {
		for _, workers := range []int{1, 4} {
			for _, spec := range []MeshSpec{{}, mesh} {
				got := in(func() (*mapstore.Store, error) {
					st := mapstore.NewStore()
					return st, BuildEpochStore(st, world.Build(world.Tiny(seed)), days, workers, spec)
				})
				want := in(func() (*mapstore.Store, error) {
					if spec.Agents == 0 {
						return oracleBuildEpochStore(world.Build(world.Tiny(seed)), days, workers)
					}
					st := mapstore.NewStore()
					return st, oracleBuildEpochStoreMeshInto(st, world.Build(world.Tiny(seed)), days, workers, spec)
				})
				name := "seed " + strconv.FormatInt(seed, 10) + " workers " + strconv.Itoa(workers) + " agents " + strconv.Itoa(spec.Agents)
				if !reflect.DeepEqual(got.st.Infos(), want.st.Infos()) {
					t.Errorf("%s: Infos\n%+v\nparent\n%+v", name, got.st.Infos(), want.st.Infos())
				}
				if got.st.Len() != days || want.st.Len() != days {
					t.Fatalf("%s: %d and %d epochs, want %d", name, got.st.Len(), want.st.Len(), days)
				}
				for d, e := range got.st.Snapshot() {
					p := want.st.Snapshot()[d]
					if e.ETag != p.ETag || e.MeshETag != p.MeshETag {
						t.Errorf("%s epoch %d: ETags %q %q, parent %q %q", name, d, e.ETag, e.MeshETag, p.ETag, p.MeshETag)
					}
					if !bytes.Equal(e.Encoded, p.Encoded) || !bytes.Equal(e.MeshEncoded, p.MeshEncoded) {
						t.Errorf("%s epoch %d: encoded map or mesh bytes differ from the parent builder's", name, d)
					}
					if (e.MeshDoc != nil) != (spec.Agents > 0) {
						t.Errorf("%s epoch %d: mesh present = %v", name, d, e.MeshDoc != nil)
					}
				}
				if got.exposition != want.exposition {
					t.Errorf("%s: stable exposition differs from the parent builder's\n--- got\n%s--- parent\n%s", name, got.exposition, want.exposition)
				}
			}
		}
	}
}
