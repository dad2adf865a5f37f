package mapstore

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"itmap/internal/core"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/traffic"
)

func storeWith(t *testing.T, days int) *Store {
	t.Helper()
	s := NewStore()
	for d := 0; d < days; d++ {
		if _, err := s.Append(simtime.Time(d)*simtime.Day, docAt(d)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestTopASesRanking(t *testing.T) {
	s := storeWith(t, 1)
	e := s.Latest()
	top := e.TopASes(10)
	// sampleDoc activity: 64500=123.5, 64501=7, 65000=0.25.
	if len(top) != 3 {
		t.Fatalf("top %v", top)
	}
	if top[0].ASN != 64500 || top[1].ASN != 64501 || top[2].ASN != 65000 {
		t.Errorf("ranking wrong: %v", top)
	}
	total := 123.5 + 7 + 0.25
	if got, want := top[0].Share, 123.5/total; got != want {
		t.Errorf("share %f, want %f", got, want)
	}
	if got := e.TopASes(1); len(got) != 1 || got[0].ASN != 64500 {
		t.Errorf("top-1 %v", got)
	}
	if got := e.TopASes(-1); len(got) != 0 {
		t.Errorf("top(-1) %v", got)
	}
}

func TestASView(t *testing.T) {
	s := storeWith(t, 1)
	e := s.Latest()
	v, ok := e.ASView(64500, 10)
	if !ok {
		t.Fatal("AS 64500 missing")
	}
	if v.Activity != 123.5 || v.Source == nil || *v.Source != core.FromCacheProbe {
		t.Errorf("view %+v", v)
	}
	// 64500 maps two domains; both serving prefixes resolve to scan
	// servers, and ranking is by host popularity then domain.
	if v.TotalServices != 2 || len(v.Services) != 2 {
		t.Fatalf("services %+v", v.Services)
	}
	// Host 64500 serves 2 client mappings (cdn+video via 9.9.9.0/24),
	// host 64501 serves 1.
	if v.Services[0].HostClients < v.Services[1].HostClients {
		t.Errorf("services not ranked by host popularity: %+v", v.Services)
	}
	if v.Services[0].Org != "HyperGiant" {
		t.Errorf("org not joined from scan: %+v", v.Services[0])
	}

	// Top-k truncation.
	v, _ = e.ASView(64500, 1)
	if len(v.Services) != 1 || v.TotalServices != 2 {
		t.Errorf("k=1 view %+v", v)
	}

	// An AS with a source but no activity still resolves.
	if _, ok := e.ASView(65000, 0); !ok {
		t.Error("AS 65000 missing")
	}
	if _, ok := e.ASView(4242, 0); ok {
		t.Error("unknown AS resolved")
	}
}

func TestASActivitySeries(t *testing.T) {
	s := storeWith(t, 3)
	series := seriesIn(s.Snapshot(), 64500)
	if len(series) != 3 {
		t.Fatalf("series %v", series)
	}
	// docAt adds +10/day to 64500.
	if series[0].Activity != 123.5 || series[1].Activity != 133.5 || series[2].Activity != 143.5 {
		t.Errorf("series values %v", series)
	}
	if series[2].At != 2*simtime.Day {
		t.Errorf("series time %v", series[2].At)
	}
	empty := seriesIn(s.Snapshot(), 4242)
	for _, v := range empty {
		if v.Activity != 0 {
			t.Errorf("unknown AS has activity %v", v)
		}
	}
}

func TestStoreDiff(t *testing.T) {
	s := storeWith(t, 3)
	d, err := s.Diff(0, 2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if d.EpochA != 0 || d.EpochB != 2 || d.AtB != 2*simtime.Day {
		t.Errorf("diff header %+v", d)
	}
	// Day 2 added 10.0.1.0/24 and 10.0.2.0/24.
	if len(d.Appeared) != 2 || d.Appeared[0] != prefix("10.0.1.0/24") {
		t.Errorf("appeared %v", d.Appeared)
	}
	if len(d.Vanished) != 0 || d.StablePrefixes != 3 {
		t.Errorf("vanished %v stable %d", d.Vanished, d.StablePrefixes)
	}
	if d.Jaccard != 3.0/5.0 {
		t.Errorf("jaccard %f", d.Jaccard)
	}
	// 64500 gained share, so the others lost some.
	if len(d.Shifts) == 0 || d.Shifts[0].ASN != 64500 || d.Shifts[0].Delta <= 0 {
		t.Errorf("shifts %+v", d.Shifts)
	}

	// Self-diff is empty.
	self, err := s.Diff(1, 1, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if self.Jaccard != 1 || len(self.Appeared)+len(self.Vanished)+len(self.Shifts) != 0 {
		t.Errorf("self diff %+v", self)
	}

	if _, err := s.Diff(0, 9, 0.1); err == nil {
		t.Error("diff against missing epoch succeeded")
	}
}

// TestLinkRouteServesMatrixLoads: with a matrix attached, /v1/link answers
// an adjacent pair, in the order it was asked, from the dense link loads,
// revalidates it, and 404s a pair that is no link under any validator.
func TestLinkRouteServesMatrixLoads(t *testing.T) {
	top := topology.NewTopology()
	for _, asn := range []topology.ASN{1, 2, 3} {
		top.AddAS(&topology.AS{ASN: asn, Type: topology.Transit, Country: "US"})
	}
	top.AddLink(1, 2, topology.RelPeer, topology.PrivatePeering, 0)
	top.AddLink(3, 2, topology.RelProvider, topology.TransitLink, 0)
	top.Freeze()
	links := top.LinkIndex()
	loads := make([]float64, links.NumLinks())
	i1, _ := top.Index(1)
	i2, _ := top.Index(2)
	loads[links.IDBetween(i1, i2)] = 1234.5
	s := NewStore()
	if _, err := s.AppendMap(0, &core.TrafficMap{MapDocument: core.MapDocument{Version: 1}, Top: top}, &traffic.Matrix{Links: links, LinkLoadDense: loads}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	resp := getFull(t, srv, "/v1/link/2/1", "")
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "{\n  \"epoch\": 0,\n  \"a\": 2,\n  \"b\": 1,\n  \"daily_bytes\": 1234.5\n}\n" {
		t.Errorf("GET /v1/link/2/1: %d %q", resp.StatusCode, body)
	}
	if code := getFull(t, srv, "/v1/link/2/1", "*").StatusCode; code != http.StatusNotModified {
		t.Errorf("GET /v1/link/2/1 with If-None-Match *: %d, want 304", code)
	}
	for _, inm := range []string{"", "*"} {
		if code := getFull(t, srv, "/v1/link/1/3", inm).StatusCode; code != http.StatusNotFound {
			t.Errorf("GET /v1/link/1/3 (no such link) with If-None-Match %q: %d, want 404", inm, code)
		}
	}
}

func TestLinkLoadWithoutMatrix(t *testing.T) {
	s := storeWith(t, 1)
	if _, ok := s.Latest().LinkLoad(1, 2); ok {
		t.Error("link load resolved without a matrix snapshot")
	}
}
