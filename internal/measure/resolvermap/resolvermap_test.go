package resolvermap

import (
	"testing"

	"itmap/internal/dnssim"
	"itmap/internal/measure/rootlogs"
	"itmap/internal/stats"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func collect(t testing.TB, w *world.World) *Association {
	t.Helper()
	return Collect(w.Top, w.Users, w.Traffic, w.PR, DefaultConfig())
}

func TestAssociationCoversUserASes(t *testing.T) {
	w := world.Build(world.Tiny(1))
	a := collect(t, w)
	if a.Views <= 0 {
		t.Fatal("no instrumented views")
	}
	userASes := 0
	for _, asn := range w.Top.ASNs() {
		if w.Users.ASUsers(asn) > 0 {
			userASes++
		}
	}
	if got := a.AssociatedClientASes(); got != userASes {
		t.Errorf("associated %d client ASes, world has %d with users", got, userASes)
	}
}

func TestPublicResolverAssociation(t *testing.T) {
	w := world.Build(world.Tiny(2))
	a := collect(t, w)
	prPrefix, ok := dnssim.ResolverOfAS(w.Top, w.PR.Owner)
	if !ok {
		t.Fatal("public resolver has no prefix")
	}
	m := a.Clients[prPrefix]
	if len(m) < 10 {
		t.Fatalf("public resolver associated with only %d client ASes", len(m))
	}
	// Shares behind the public resolver reflect user populations times
	// adoption.
	var xs, ys []float64
	for asn, v := range m {
		xs = append(xs, v)
		ys = append(ys, w.Users.ASUsers(asn))
	}
	if rho := stats.Spearman(xs, ys); rho < 0.8 {
		t.Errorf("public-resolver client shares vs users Spearman %.2f", rho)
	}
}

func TestOutsourcedClientsAssociatedWithProvider(t *testing.T) {
	w := world.Build(world.Tiny(3))
	a := collect(t, w)
	found := false
	for _, asn := range w.Top.ASNs() {
		if w.Users.ASUsers(asn) == 0 || !w.Traffic.OutsourcesResolver(asn) {
			continue
		}
		provs := w.Top.ASes[asn].Providers()
		if len(provs) == 0 {
			continue
		}
		rp, ok := dnssim.ResolverOfAS(w.Top, provs[0])
		if !ok {
			continue
		}
		if a.Clients[rp][asn] > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no outsourced client associated with its provider's resolver")
	}
}

func TestReattributeImprovesRootAttribution(t *testing.T) {
	w := world.Build(world.Tiny(5))
	a := collect(t, w)
	crawl := rootlogs.CrawlDay(w.Roots, w.Traffic, 0)

	naive := crawl.ClientASes(w.PR.Owner)
	corrected := a.Reattribute(w.Top, crawl.ActivityByResolverPrefix)

	// Correctness proxy: rank correlation against true per-AS users over
	// all user-hosting ASes (missing = 0).
	var nx, ny, cx, cy []float64
	for _, asn := range w.Top.ASNs() {
		u := w.Users.ASUsers(asn)
		if u == 0 {
			continue
		}
		nx = append(nx, naive[asn])
		ny = append(ny, u)
		cx = append(cx, corrected[asn])
		cy = append(cy, u)
	}
	rhoNaive := stats.Spearman(nx, ny)
	rhoCorrected := stats.Spearman(cx, cy)
	if rhoCorrected <= rhoNaive {
		t.Errorf("association did not improve attribution: naive %.3f vs corrected %.3f",
			rhoNaive, rhoCorrected)
	}
	// Outsourced-resolver eyeballs get activity back.
	recovered := false
	for _, asn := range w.Top.ASesOfType(topology.Eyeball) {
		if w.Traffic.OutsourcesResolver(asn) && naive[asn] == 0 && corrected[asn] > 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Error("no outsourced eyeball recovered by reattribution")
	}
}

func TestReattributeFallbackWithoutAssociation(t *testing.T) {
	w := world.Build(world.Tiny(6))
	a := &Association{Clients: map[topology.PrefixID]map[topology.ASN]float64{}}
	rp, _ := dnssim.ResolverOfAS(w.Top, w.Top.ASNs()[0])
	out := a.Reattribute(w.Top, map[topology.PrefixID]float64{rp: 100})
	if out[w.Top.ASNs()[0]] != 100 {
		t.Error("unassociated resolver volume should fall back to the resolver's AS")
	}
}
