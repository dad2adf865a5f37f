package experiments

import (
	"math"
	"testing"

	"itmap/internal/measure/cacheprobe"
	"itmap/internal/simtime"
	"itmap/internal/world"
)

// TestE13ProfilesClearOfWindowEdges: every day profile E13 merges is the
// same when its samples move one ulp either way, so its peak hours do not
// rest on which side of a TTL window edge a sample's rounding fell. Days
// started at midnight, as E13 started them before, sit on the edges.
func TestE13ProfilesClearOfWindowEdges(t *testing.T) {
	w := world.Build(world.Tiny(42))
	pb := &cacheprobe.Prober{PR: w.PR}
	domain, byCountry := e13Prefixes(w)
	svc, _ := w.Cat.ByDomain(domain)
	moved := func(code string, start simtime.Time) bool {
		var profiles [3]cacheprobe.HourlyProfile
		for i, at := range []float64{math.Nextafter(float64(start), 0), float64(start), math.Nextafter(float64(start), 96)} {
			hp, err := pb.MeasureHourlyProfile(w.Top, byCountry[code], domain, simtime.Time(at), e13Interval)
			if err != nil {
				t.Fatal(err)
			}
			profiles[i] = *hp
		}
		return profiles[0] != profiles[1] || profiles[2] != profiles[1]
	}
	countries, fromMidnight := 0, 0
	for code, prefixes := range byCountry {
		if len(prefixes) < 8 {
			continue
		}
		countries++
		for day := 0; day < e13Days; day++ {
			if moved(code, cacheprobe.DayStart(day, e13Interval, svc.TTLSeconds)) {
				t.Errorf("%s, day %d: the profile moves with one ulp of clock", code, day)
			}
			if moved(code, simtime.Time(24*day)) {
				fromMidnight++
			}
		}
	}
	if countries == 0 || fromMidnight == 0 {
		t.Errorf("%d countries probed, %d midnight profiles moved with one ulp: the check is vacuous", countries, fromMidnight)
	}
}
