package vantage

import (
	"encoding/json"
	"testing"

	"itmap/internal/core"
	"itmap/internal/faults"
	"itmap/internal/obs"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func tinyWorld(t *testing.T, seed int64) *world.World {
	t.Helper()
	return world.Build(world.Tiny(seed))
}

// runMesh runs one campaign against a fresh obs set and returns the
// document's canonical JSON plus the stable metrics dump.
func runMesh(t *testing.T, w *world.World, cfg Config) (*core.MeshDocument, []byte, string) {
	t.Helper()
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)
	obs.ActivateTrace("vantage.mesh_round")
	doc, st := New(w.Top, w.Paths, w.Users, cfg).Run()
	if st.Scheduled == 0 || st.Pings == 0 {
		t.Fatalf("campaign did no work: %+v", st)
	}
	js, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return doc, js, obs.Metrics().StableExposition()
}

func TestFleetPlacement(t *testing.T) {
	w := tinyWorld(t, 11)
	f := NewFleet(w.Top, w.Users, 32, 11)
	if len(f.Agents) != 32 {
		t.Fatalf("placed %d agents, want 32", len(f.Agents))
	}
	for _, a := range f.Agents {
		as, ok := w.Top.ASes[a.AS]
		if !ok || as.Type != topology.Eyeball {
			t.Fatalf("agent %d placed in non-eyeball AS %d", a.ID, a.AS)
		}
		if owner, ok := w.Top.OwnerOf(a.Prefix); !ok || owner != a.AS {
			t.Fatalf("agent %d prefix %v not owned by its AS %d", a.ID, a.Prefix, a.AS)
		}
	}
	// Identity stability: growing the fleet must not move existing agents.
	big := NewFleet(w.Top, w.Users, 64, 11)
	for i, a := range f.Agents {
		if big.Agents[i] != a {
			t.Fatalf("agent %d moved when fleet grew: %+v vs %+v", i, a, big.Agents[i])
		}
	}
}

func TestCampaignDocumentShape(t *testing.T) {
	w := tinyWorld(t, 5)
	doc, _, _ := runMesh(t, w, Config{Agents: 24, Rounds: 2, Workers: 2, Seed: 5})
	if len(doc.Pairs) == 0 {
		t.Fatal("campaign produced no pairs")
	}
	var prev uint64
	for i := range doc.Pairs {
		p := &doc.Pairs[i]
		if p.Lo >= p.Hi {
			t.Fatalf("pair %d not canonical: lo=%d hi=%d", i, p.Lo, p.Hi)
		}
		if i > 0 && p.Key() <= prev {
			t.Fatalf("pairs not sorted at %d", i)
		}
		prev = p.Key()
		if p.Lost > p.Probes {
			t.Fatalf("pair %d lost %d > probes %d", i, p.Lost, p.Probes)
		}
		if p.Confidence < 0 || p.Confidence > 1 {
			t.Fatalf("pair %d confidence %v out of range", i, p.Confidence)
		}
		if p.Complete {
			for _, hop := range p.Path {
				if hop == 0 {
					t.Fatalf("pair %d complete but path has a hole", i)
				}
			}
		}
		if p.Probes > p.Lost && (p.MinRTT <= 0 || p.MinRTT > p.MeanRTT || p.MeanRTT > p.MaxRTT) {
			t.Fatalf("pair %d RTT summary inconsistent: %v/%v/%v", i, p.MinRTT, p.MeanRTT, p.MaxRTT)
		}
	}
}

// TestCampaignDeterministic is the mesh determinism contract: same seed ⇒
// byte-identical MeshMatrix and stable obs dump, across runs AND across
// worker counts 1 vs 4.
func TestCampaignDeterministic(t *testing.T) {
	w := tinyWorld(t, 9)
	prof, _ := faults.ByName("lossy")
	cfg := Config{Agents: 24, Rounds: 2, Seed: 9, Profile: prof}

	c1 := cfg
	c1.Workers = 1
	_, js1a, obs1a := runMesh(t, w, c1)
	_, js1b, obs1b := runMesh(t, w, c1)
	if string(js1a) != string(js1b) {
		t.Fatal("same-seed runs produced different mesh documents")
	}
	if obs1a != obs1b {
		t.Fatal("same-seed runs produced different obs dumps")
	}

	c4 := cfg
	c4.Workers = 4
	_, js4, obs4 := runMesh(t, w, c4)
	if string(js1a) != string(js4) {
		t.Fatal("mesh document depends on worker count")
	}
	if obs1a != obs4 {
		t.Fatal("obs dump depends on worker count")
	}
}

// TestCampaignFaultsBite checks the hostile preset actually costs coverage
// relative to calm — the substrate is wired through, not bypassed.
func TestCampaignFaultsBite(t *testing.T) {
	w := tinyWorld(t, 3)
	calmProf, _ := faults.ByName("calm")
	hostProf, _ := faults.ByName("hostile")
	calm, _, _ := runMesh(t, w, Config{Agents: 24, Rounds: 2, Seed: 3, Profile: calmProf})
	hostile, _, _ := runMesh(t, w, Config{Agents: 24, Rounds: 2, Seed: 3, Profile: hostProf})
	lost := func(d *core.MeshDocument) (n int) {
		for i := range d.Pairs {
			n += d.Pairs[i].Lost
		}
		return n
	}
	if lost(hostile) <= lost(calm) {
		t.Fatalf("hostile lost %d pings, calm lost %d — faults not biting", lost(hostile), lost(calm))
	}
	if calm.Profile != "calm" || hostile.Profile != "hostile" {
		t.Fatalf("profiles not recorded: %q / %q", calm.Profile, hostile.Profile)
	}
}
