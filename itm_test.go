package itm

import (
	"reflect"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	inet := NewInternet(TinyConfig(1))
	m := BuildMap(inet)
	if len(m.ASActivity) == 0 {
		t.Fatal("empty map")
	}
	v := ValidateMap(inet, m)
	if v.PrefixTrafficRecall < 0.8 {
		t.Errorf("recall %.2f too low", v.PrefixTrafficRecall)
	}
	// Outage use case runs through the facade.
	var target ASN
	best := 0.0
	for _, asn := range inet.Top.ASNs() {
		if u := inet.Users.ASUsers(asn); u > best {
			best, target = u, asn
		}
	}
	rep := m.OutageImpact(target)
	if rep.ActivityShare <= 0 {
		t.Error("no outage impact for largest AS")
	}
}

func TestFacadeSessionCaching(t *testing.T) {
	inet := NewInternet(TinyConfig(2))
	s := NewSession(inet)
	if s.Map() != s.Map() {
		t.Error("session does not cache the map")
	}
}

// TestDailySessionsShareOneCampaign: the days of NewDailySessions share one
// TLS scan, yet each maps its own day: the root-log crawl of day 1 moves
// the activity shares.
func TestDailySessionsShareOneCampaign(t *testing.T) {
	days := NewDailySessions(NewInternet(TinyConfig(42)), 2)
	if len(days) != 2 {
		t.Fatalf("%d sessions for 2 days", len(days))
	}
	if days[0].Scan() != days[1].Scan() {
		t.Error("the days run two TLS scans")
	}
	if reflect.DeepEqual(days[0].Map().ASActivity, days[1].Map().ASActivity) {
		t.Error("day 1's map holds day 0's activity shares")
	}
}

func TestFacadePeeringCandidates(t *testing.T) {
	inet := NewInternet(TinyConfig(3))
	cands := PeeringCandidates(inet, 10)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if len(cands) > 10 {
		t.Fatalf("limit ignored: %d", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates unsorted")
		}
	}
}

func TestFacadeResultRendering(t *testing.T) {
	inet := NewInternet(TinyConfig(4))
	s := NewSession(inet)
	rs := []*Result{s.RunE1(), s.RunE9()}
	txt := FormatResults(rs)
	md := MarkdownResults(rs)
	if !strings.Contains(txt, "E1") || !strings.Contains(md, "### E9") {
		t.Error("rendering lost experiment ids")
	}
}

func TestWeightedCDFExported(t *testing.T) {
	var c WeightedCDF
	c.Add(1, 2)
	c.Add(3, 2)
	if got := c.Quantile(0.5); got != 1 {
		t.Errorf("median %f", got)
	}
}
