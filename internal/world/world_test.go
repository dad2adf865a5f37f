package world

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"itmap/internal/topology"
)

func TestBuildTinyWorld(t *testing.T) {
	w := Build(Tiny(1))
	if err := w.Top.CheckInvariants(); err != nil {
		t.Fatalf("invariants after full build: %v", err)
	}
	if w.Traffic == nil || w.PR == nil || w.Auth == nil || w.Roots == nil {
		t.Fatal("world incompletely wired")
	}
	if len(w.PR.PoPs) < 4 {
		t.Errorf("public resolver has only %d PoPs", len(w.PR.PoPs))
	}
	if len(w.Roots.Letters) != 13 {
		t.Errorf("root system has %d letters", len(w.Roots.Letters))
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := Build(Tiny(5))
	b := Build(Tiny(5))
	ma := a.Traffic.BuildMatrix()
	mb := b.Traffic.BuildMatrix()
	if ma.TotalBytes != mb.TotalBytes {
		t.Fatalf("same seed, different totals: %f vs %f", ma.TotalBytes, mb.TotalBytes)
	}
	if len(ma.Flows) != len(mb.Flows) {
		t.Fatalf("same seed, different flow counts: %d vs %d", len(ma.Flows), len(mb.Flows))
	}
}

func TestMatrixConsistency(t *testing.T) {
	w := Build(Tiny(3))
	mx := w.Traffic.BuildMatrix()
	if mx.TotalBytes <= 0 {
		t.Fatal("no traffic")
	}
	// Per-service and per-owner sums both equal the total.
	var svcSum, ownerSum, clientSum float64
	for _, b := range mx.PerService {
		svcSum += b
	}
	for _, b := range mx.PerOwner {
		ownerSum += b
	}
	for _, b := range mx.ClientASBytes {
		clientSum += b
	}
	catalogBytes := mx.TotalBytes - mx.TailBytes
	for _, name := range []struct {
		n          string
		v, against float64
	}{
		{"service", svcSum, catalogBytes},
		{"owner", ownerSum, mx.TotalBytes},
		{"client", clientSum, mx.TotalBytes},
	} {
		if rel := (name.v - name.against) / name.against; rel > 1e-9 || rel < -1e-9 {
			t.Errorf("%s sum %.0f != %.0f", name.n, name.v, name.against)
		}
	}
	// Tail share lands near its configured value.
	if ts := mx.TailBytes / mx.TotalBytes; math.Abs(ts-w.Traffic.TailShare) > 0.02 {
		t.Errorf("tail share %.3f, want %.2f", ts, w.Traffic.TailShare)
	}
	// Catalog flow bytes sum to catalog traffic (every flow routed).
	var flowSum float64
	for _, f := range mx.Flows {
		if f.Hops < 0 {
			t.Errorf("unrouted flow %+v", f)
		}
		flowSum += f.Bytes
	}
	if rel := (flowSum - catalogBytes) / catalogBytes; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("flow sum %.0f != catalog bytes %.0f", flowSum, catalogBytes)
	}
	// Reference CDN log is a subset of total and non-empty.
	var ref float64
	for _, b := range mx.RefCDNByPrefix {
		ref += b
	}
	if ref <= 0 || ref >= mx.TotalBytes {
		t.Errorf("reference CDN bytes %.0f out of range", ref)
	}
}

func TestTrafficConcentratedOnGiants(t *testing.T) {
	w := Build(Tiny(7))
	mx := w.Traffic.BuildMatrix()
	owners := mx.TopOwners()
	if len(owners) == 0 {
		t.Fatal("no owners")
	}
	// The heaviest owners are all giants; the tail is not.
	for _, o := range owners[:3] {
		ty := w.Top.ASes[o.ASN].Type
		if ty != topology.Hypergiant && ty != topology.Cloud {
			t.Errorf("top owner %d is %v", o.ASN, ty)
		}
	}
	// The paper's premise: a handful of providers carry most traffic,
	// but not literally all of it.
	if s := mx.CumulativeTopShare(5); s < 0.5 || s > 0.98 {
		t.Errorf("top-5 owners carry %.0f%%, want 50-98%%", s*100)
	}
	if s := mx.CumulativeTopShare(len(w.Cat.Owners())); s > 0.97 {
		t.Errorf("giants carry %.1f%%; tail missing", s*100)
	}
}

func TestOffNetsAbsorbTraffic(t *testing.T) {
	w := Build(Tiny(9))
	mx := w.Traffic.BuildMatrix()
	var offNetBytes float64
	for _, f := range mx.Flows {
		if f.Site.OffNet() {
			offNetBytes += f.Bytes
			if f.Site.HostAS != f.ClientAS && f.Hops < 0 {
				t.Errorf("off-net flow unrouted: %+v", f)
			}
		}
	}
	if offNetBytes == 0 {
		t.Error("no traffic served from off-net caches")
	}
}

// TestForScale: the one parser of a -scale value yields exactly what the
// three constructors do, and refuses everything else by name.
func TestForScale(t *testing.T) {
	const seed = 17
	for _, c := range []struct {
		scale string
		want  func(int64) Config
	}{
		{"tiny", Tiny},
		{"small", Small},
		{"default", Default},
	} {
		got, err := ForScale(c.scale, seed)
		if err != nil {
			t.Errorf("ForScale(%q): %v", c.scale, err)
		}
		if !reflect.DeepEqual(got, c.want(seed)) {
			t.Errorf("ForScale(%q) = %+v, want %+v", c.scale, got, c.want(seed))
		}
	}
	for _, scale := range []string{"", "Tiny", "medium", "tiny ", "bogus"} {
		got, err := ForScale(scale, seed)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(scale)) {
			t.Errorf("ForScale(%q) error = %v, want one naming the scale", scale, err)
		}
		if !reflect.DeepEqual(got, Config{}) {
			t.Errorf("ForScale(%q) returned a config beside its error: %+v", scale, got)
		}
	}
}
