package geo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	ny := Coord{40.7, -74.0}
	london := Coord{51.5, -0.1}
	tokyo := Coord{35.7, 139.7}
	cases := []struct {
		a, b     Coord
		wantKm   float64
		tolerate float64
	}{
		{ny, london, 5570, 100},
		{london, tokyo, 9560, 150},
		{ny, ny, 0, 0.001},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolerate {
			t.Errorf("distance = %.0f km, want %.0f±%.0f", got, c.wantKm, c.tolerate)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 uint16) bool {
		a := Coord{float64(lat1%180) - 90, float64(lon1%360) - 180}
		b := Coord{float64(lat2%180) - 90, float64(lon2%360) - 180}
		dab := DistanceKm(a, b)
		dba := DistanceKm(b, a)
		// Symmetric, non-negative, bounded by half circumference.
		return dab >= 0 && math.Abs(dab-dba) < 1e-6 && dab < 20038
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountriesSortedAndComplete(t *testing.T) {
	cs := Countries()
	if len(cs) < 30 {
		t.Fatalf("only %d countries", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].InternetUsersM > cs[i-1].InternetUsersM {
			t.Fatal("countries not sorted by users desc")
		}
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.Code] {
			t.Fatalf("duplicate country %s", c.Code)
		}
		seen[c.Code] = true
		if c.InternetUsersM <= 0 || c.Capital.Name == "" {
			t.Fatalf("country %s incomplete", c.Code)
		}
		if c.Capital.Coord.Lat < -90 || c.Capital.Coord.Lat > 90 {
			t.Fatalf("country %s latitude out of range", c.Code)
		}
	}
	if !seen["FR"] || !seen["US"] || !seen["IN"] {
		t.Error("expected FR, US, IN in table")
	}
}

func TestCountryByCode(t *testing.T) {
	fr, err := CountryByCode("FR")
	if err != nil || fr.Name != "France" {
		t.Fatalf("FR lookup: %v %v", fr, err)
	}
	// Every table row round-trips through the code index, whole.
	for _, want := range Countries() {
		got, err := CountryByCode(want.Code)
		if err != nil || got != want {
			t.Errorf("CountryByCode(%q) = %+v, %v; want %+v", want.Code, got, err, want)
		}
	}
	for _, code := range []string{"XX", "", "fr", "ZZ"} {
		c, err := CountryByCode(code)
		if err == nil || c != (Country{}) {
			t.Errorf("CountryByCode(%q) = %+v, %v; want zero country and an error", code, c, err)
			continue
		}
		if want := fmt.Sprintf("geo: unknown country code %q", code); err.Error() != want {
			t.Errorf("CountryByCode(%q) error = %q, want %q", code, err, want)
		}
	}
}

func TestRegionHub(t *testing.T) {
	for _, r := range Regions() {
		hub := RegionHub(r)
		if hub.Name == "" {
			t.Errorf("region %s has no hub", r)
		}
	}
	// Largest EastAsia country is China.
	if hub := RegionHub(EastAsia); hub.Country != "CN" {
		t.Errorf("EastAsia hub in %s, want CN", hub.Country)
	}
}

func TestLocalHourAt(t *testing.T) {
	jp, _ := CountryByCode("JP") // UTC+9
	if h := LocalHourAt(jp.UTCOffsetHours, 0); math.Abs(h-9) > 1e-9 {
		t.Errorf("JP local hour at UTC 0 = %f, want 9", h)
	}
	us, _ := CountryByCode("US") // UTC-5
	if h := LocalHourAt(us.UTCOffsetHours, 3); math.Abs(h-22) > 1e-9 {
		t.Errorf("US local hour at UTC 3 = %f, want 22", h)
	}
	// Always in [0, 24).
	for utc := -30.0; utc < 60; utc += 1.3 {
		h := LocalHourAt(jp.UTCOffsetHours, utc)
		if h < 0 || h >= 24 {
			t.Fatalf("local hour %f out of range", h)
		}
	}
}

func TestTotalInternetUsers(t *testing.T) {
	total := 0.0
	for _, c := range Countries() {
		total += c.InternetUsersM
	}
	if total < 3000 || total > 6000 {
		t.Errorf("world Internet users %.0fM implausible", total)
	}
}
