package geoloc

import (
	"testing"

	"itmap/internal/geo"
	"itmap/internal/latency"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func setup(t testing.TB, seed int64) (*world.World, *latency.Model) {
	t.Helper()
	w := world.Build(world.Small(seed))
	return w, latency.New(w.Top, w.Paths, seed)
}

// violated reports whether the estimate sits outside any of its own
// constraints, which a correct model never does.
func violated(e Estimate) bool {
	for _, c := range e.Constraints {
		if geo.DistanceKm(e.Coord, c.VP.Coord) > c.RadiusKm*1.001 {
			return true
		}
	}
	return false
}

func serverTargets(w *world.World, owner topology.ASN) map[topology.PrefixID]geo.City {
	out := map[topology.PrefixID]geo.City{}
	for _, s := range w.Cat.Deployments[owner].Sites {
		out[s.Prefix] = s.City
	}
	return out
}

func TestLocalizeServers(t *testing.T) {
	w, m := setup(t, 1)
	vps := AtlasVPSet(w.Top)
	if len(vps) < 5 {
		t.Fatalf("only %d vantage points", len(vps))
	}
	owner := w.Cat.ReferenceCDN
	targets := serverTargets(w, owner)
	var errs []float64
	for p, city := range targets {
		est, ok := Localize(m, vps, p, 5)
		if !ok {
			continue
		}
		if violated(est) {
			t.Fatalf("estimate for %v violates its own constraints", p)
		}
		errs = append(errs, est.ErrorKm(city.Coord))
	}
	sum := Summarize(errs)
	if sum.Targets < 10 {
		t.Fatalf("only %d targets localized", sum.Targets)
	}
	// Atlas-scale constraint geolocation should get the continent right
	// and usually much better.
	if sum.MedianKm > 2500 {
		t.Errorf("median error %.0f km; continent-level accuracy expected", sum.MedianKm)
	}
}

func TestFacilityVPsImproveAccuracy(t *testing.T) {
	w, m := setup(t, 2)
	owner := w.Cat.ReferenceCDN
	targets := serverTargets(w, owner)

	atlas := AtlasVPSet(w.Top)
	// In-facility VPs: another giant's on-net sites (known facility
	// coordinates), excluding the targets themselves.
	var other topology.ASN
	for _, hg := range w.Top.ASesOfType(topology.Hypergiant) {
		if hg != owner {
			other = hg
			break
		}
	}
	facTargets := map[topology.PrefixID]geo.City{}
	for _, s := range w.Cat.Deployments[other].OnNetSites() {
		facTargets[s.Prefix] = s.City
	}
	facility := FacilityVPSet(w.Top, facTargets)
	if len(facility) == 0 {
		t.Skip("no facility VPs")
	}

	var atlasErrs, facErrs []float64
	for p, city := range targets {
		if estA, ok := Localize(m, atlas, p, 5); ok {
			atlasErrs = append(atlasErrs, estA.ErrorKm(city.Coord))
		}
		if estF, ok := Localize(m, append(append([]VantagePoint{}, atlas...), facility...), p, 5); ok {
			facErrs = append(facErrs, estF.ErrorKm(city.Coord))
		}
	}
	a, f := Summarize(atlasErrs), Summarize(facErrs)
	if f.MedianKm > a.MedianKm {
		t.Errorf("facility VPs worsened accuracy: %.0f km vs %.0f km", f.MedianKm, a.MedianKm)
	}
}

func TestConstraintsSortedAndBounding(t *testing.T) {
	w, m := setup(t, 3)
	vps := AtlasVPSet(w.Top)
	owner := w.Cat.ReferenceCDN
	for p, city := range serverTargets(w, owner) {
		est, ok := Localize(m, vps, p, 3)
		if !ok {
			continue
		}
		for i := 1; i < len(est.Constraints); i++ {
			if est.Constraints[i].RadiusKm < est.Constraints[i-1].RadiusKm {
				t.Fatal("constraints not sorted by tightness")
			}
		}
		// The true location satisfies every constraint.
		for _, c := range est.Constraints {
			if d := geoDistKm(c.VP.Coord, city.Coord); d > c.RadiusKm*1.001 {
				t.Fatalf("true location violates constraint: %.0f km > %.0f km", d, c.RadiusKm)
			}
		}
		break
	}
}

func geoDistKm(a, b geo.Coord) float64 { return geo.DistanceKm(a, b) }

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.Targets != 0 || s.MedianKm != 0 {
		t.Error("empty summary wrong")
	}
	s := Summarize([]float64{5})
	if s.MedianKm != 5 || s.P90Km != 5 {
		t.Errorf("single-sample summary %+v", s)
	}
}

func TestLocalizeNoVPs(t *testing.T) {
	w, m := setup(t, 4)
	p := w.Top.AllPrefixes()[0]
	if _, ok := Localize(m, nil, p, 3); ok {
		t.Error("localized with no vantage points")
	}
}
