package cacheprobe

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"itmap/internal/dnswire"
	"itmap/internal/faults"
	"itmap/internal/measure/tracer"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/world"

	"net/netip"

	"itmap/internal/dnssim"
)

// TestZeroFaultPlanIsByteIdentical pins the tentpole's core contract: a nil
// plan and a zero (inert) plan produce exactly the same measurement outputs
// everywhere the fault layer was threaded through.
func TestZeroFaultPlanIsByteIdentical(t *testing.T) {
	w := world.Build(world.Tiny(5))
	domains := w.Cat.ECSDomains()[:4]
	prefixes := w.Top.AllPrefixes()
	pb := &Prober{PR: w.PR, Domains: domains, Source: 0xabc}

	run := func() (*Discovery, *HitRates, *HourlyProfile) {
		d, err := pb.DiscoverPrefixes(w.Top, prefixes, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := pb.MeasureHitRates(w.Top, prefixes[:40], domains[0], 0, 30*simtime.Minute)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := pb.MeasureHourlyProfile(w.Top, prefixes[:20], domains[0], 0, simtime.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return d, hr, hp
	}

	w.PR.SetFaultPlan(nil)
	d1, hr1, hp1 := run()
	w.PR.SetFaultPlan(faults.NewPlan(faults.None(), 99))
	d2, hr2, hp2 := run()
	w.PR.SetFaultPlan(nil)

	if !reflect.DeepEqual(d1, d2) {
		t.Error("zero-fault plan changed DiscoverPrefixes output")
	}
	if !reflect.DeepEqual(hr1, hr2) {
		t.Error("zero-fault plan changed MeasureHitRates output")
	}
	if !reflect.DeepEqual(hp1, hp2) {
		t.Error("zero-fault plan changed MeasureHourlyProfile output")
	}
	if d1.Failed != 0 || hr1.Failed != 0 || hp1.Failed != 0 {
		t.Error("fault-free sweep recorded failures")
	}
}

// TestZeroFaultTracerIdentical: with an inert plan the fault-aware
// traceroute is the plain traceroute, hole-free.
func TestZeroFaultTracerIdentical(t *testing.T) {
	w := world.Build(world.Tiny(5))
	asns := w.Top.ASNs()
	src, dst := asns[0], asns[len(asns)-1]
	clean := tracer.Traceroute(w.Paths, src, dst)
	for _, pl := range []*faults.Plan{nil, faults.NewPlan(faults.None(), 1)} {
		got := tracer.TracerouteFaulty(w.Paths, src, dst, pl, 0, 3)
		if !tracer.PathsEqual(clean, got) {
			t.Fatalf("inert plan changed traceroute: %v vs %v", clean, got)
		}
	}
}

// TestZeroFaultWireBytesIdentical: the UDP front end answers identical
// bytes with and without an inert plan.
func TestZeroFaultWireBytesIdentical(t *testing.T) {
	w := world.Build(world.Tiny(5))
	fe := &dnssim.WireFrontend{PR: w.PR, Auth: w.Auth, PoP: 0}
	dom := w.Cat.ECSDomains()[0]
	var p netip.Prefix
	for _, pr := range w.Top.AllPrefixes() {
		if w.PR.HomePoP(pr) != nil && w.PR.HomePoP(pr).ID == 0 {
			p = netip.PrefixFrom(pr.Addr(0), 24)
			break
		}
	}
	q := dnswire.NewQuery(5, dom, false).WithECS(p)
	raw, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w.PR.SetFaultPlan(nil)
	a := fe.Handle(raw, 2)
	w.PR.SetFaultPlan(faults.NewPlan(faults.None(), 1))
	b := fe.Handle(raw, 2)
	w.PR.SetFaultPlan(nil)
	if !bytes.Equal(a, b) {
		t.Error("zero-fault plan changed wire response bytes")
	}
}

func hostileProber(w *world.World) *ResilientProber {
	return &ResilientProber{
		PR:      w.PR,
		Domains: w.Cat.ECSDomains()[:4],
		Retry: resilience.Retryer{
			Budget: 5,
			Backoff: resilience.Backoff{
				Base: 5 * simtime.Minute, Factor: 3, Cap: 2 * simtime.Hour,
				Jitter: 0.5, Seed: 21,
			},
		},
		QPS:        25,
		BaseSource: 0x900d,
	}
}

// TestResilientSweepDeterministic: identical fault outcomes and sweep
// ledgers across repeated runs and across CPU counts.
func TestResilientSweepDeterministic(t *testing.T) {
	w := world.Build(world.Tiny(6))
	w.PR.SetFaultPlan(faults.NewPlan(faults.Hostile(), 77))
	defer w.PR.SetFaultPlan(nil)
	prefixes := w.Top.AllPrefixes()

	type outcome struct {
		d  *Discovery
		st *SweepStats
	}
	run := func(cpus int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
		d, st, err := hostileProber(w).DiscoverPrefixes(w.Top, prefixes, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{d, st}
	}
	base := run(1)
	if base.st.Retries == 0 {
		t.Fatal("hostile sweep never retried — plan not biting")
	}
	for _, cpus := range []int{1, 2, 8} {
		got := run(cpus)
		if !reflect.DeepEqual(base.d, got.d) {
			t.Fatalf("GOMAXPROCS=%d changed discovery output", cpus)
		}
		if !reflect.DeepEqual(base.st, got.st) {
			t.Fatalf("GOMAXPROCS=%d changed sweep stats", cpus)
		}
	}
}

// TestResilientZeroFaultMatchesNaiveSemantics: without faults, the
// resilient sweep finds exactly what the naive sweep finds (same targets,
// same break-on-hit semantics) and records a clean ledger.
func TestResilientZeroFaultMatchesNaive(t *testing.T) {
	w := world.Build(world.Tiny(7))
	prefixes := w.Top.AllPrefixes()
	domains := w.Cat.ECSDomains()[:4]
	naive := &Prober{PR: w.PR, Domains: domains}
	nd, err := naive.DiscoverPrefixes(w.Top, prefixes, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rp := hostileProber(w)
	rp.QPS = 0 // pacing shifts probe times; disable for exact-time parity
	rd, st, err := rp.DiscoverPrefixes(w.Top, prefixes, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nd.Found, rd.Found) {
		t.Errorf("fault-free resilient Found differs: naive %d vs resilient %d",
			len(nd.Found), len(rd.Found))
	}
	if !reflect.DeepEqual(nd.ByPoP, rd.ByPoP) {
		t.Error("fault-free resilient ByPoP differs")
	}
	if st.Retries != 0 || st.GiveUps != 0 || st.Skips != 0 || st.BreakerOpens != 0 {
		t.Errorf("fault-free sweep ledger not clean: %+v", st)
	}
	for p, o := range st.Outcome {
		if o != TargetProbedOK {
			t.Fatalf("fault-free target %v classified %v", p, o)
		}
	}
}
