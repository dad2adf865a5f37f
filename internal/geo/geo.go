// Package geo models the simulator's geography: countries with
// Internet-population weights, cities with coordinates, and great-circle
// distance. The country table is a stylized snapshot of real Internet
// demographics (relative populations matter, absolute numbers are scaled);
// the ITM's headline results are shares and ranks, which survive scaling.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// Coord is a geographic coordinate in decimal degrees.
type Coord struct {
	Lat float64
	Lon float64
}

// DistanceKm returns the great-circle (haversine) distance between a and b
// in kilometres, using a mean Earth radius of 6371 km.
func DistanceKm(a, b Coord) float64 {
	const earthRadiusKm = 6371.0
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Region is a coarse continental region, used to place public-resolver PoPs
// and to group countries in reports.
type Region string

// The simulator's regions.
const (
	NorthAmerica Region = "north-america"
	SouthAmerica Region = "south-america"
	Europe       Region = "europe"
	Africa       Region = "africa"
	MiddleEast   Region = "middle-east"
	SouthAsia    Region = "south-asia"
	EastAsia     Region = "east-asia"
	Oceania      Region = "oceania"
)

// Regions lists all regions in a stable order.
func Regions() []Region {
	return []Region{
		NorthAmerica, SouthAmerica, Europe, Africa,
		MiddleEast, SouthAsia, EastAsia, Oceania,
	}
}

// Country describes one country in the simulated world.
type Country struct {
	// Code is the ISO-3166-ish two letter code.
	Code string
	// Name is the human-readable name.
	Name string
	// Region is the continental region.
	Region Region
	// InternetUsersM is the (stylized) number of Internet users in
	// millions; it drives how many eyeball networks and users the world
	// generator places in the country.
	InternetUsersM float64
	// Capital is the principal city used when a finer city is not needed.
	Capital City
	// UTCOffsetHours approximates the country's timezone; it drives the
	// diurnal activity phase of users in the country.
	UTCOffsetHours float64
}

// City is a named location.
type City struct {
	Name    string
	Country string // country code
	Coord   Coord
}

// World geography: a stylized country table. Internet-user counts are in
// millions and approximate the early-2020s Internet. Only relative sizes
// matter to the experiments.
var countries = []Country{
	{"US", "United States", NorthAmerica, 300, City{"New York", "US", Coord{40.7, -74.0}}, -5},
	{"CA", "Canada", NorthAmerica, 35, City{"Toronto", "CA", Coord{43.7, -79.4}}, -5},
	{"MX", "Mexico", NorthAmerica, 95, City{"Mexico City", "MX", Coord{19.4, -99.1}}, -6},
	{"BR", "Brazil", SouthAmerica, 160, City{"Sao Paulo", "BR", Coord{-23.6, -46.6}}, -3},
	{"AR", "Argentina", SouthAmerica, 38, City{"Buenos Aires", "AR", Coord{-34.6, -58.4}}, -3},
	{"CO", "Colombia", SouthAmerica, 35, City{"Bogota", "CO", Coord{4.7, -74.1}}, -5},
	{"CL", "Chile", SouthAmerica, 16, City{"Santiago", "CL", Coord{-33.4, -70.7}}, -4},
	{"GB", "United Kingdom", Europe, 65, City{"London", "GB", Coord{51.5, -0.1}}, 0},
	{"DE", "Germany", Europe, 78, City{"Frankfurt", "DE", Coord{50.1, 8.7}}, 1},
	{"FR", "France", Europe, 60, City{"Paris", "FR", Coord{48.9, 2.4}}, 1},
	{"IT", "Italy", Europe, 51, City{"Milan", "IT", Coord{45.5, 9.2}}, 1},
	{"ES", "Spain", Europe, 43, City{"Madrid", "ES", Coord{40.4, -3.7}}, 1},
	{"NL", "Netherlands", Europe, 17, City{"Amsterdam", "NL", Coord{52.4, 4.9}}, 1},
	{"PL", "Poland", Europe, 34, City{"Warsaw", "PL", Coord{52.2, 21.0}}, 1},
	{"SE", "Sweden", Europe, 10, City{"Stockholm", "SE", Coord{59.3, 18.1}}, 1},
	{"RU", "Russia", Europe, 124, City{"Moscow", "RU", Coord{55.8, 37.6}}, 3},
	{"UA", "Ukraine", Europe, 30, City{"Kyiv", "UA", Coord{50.5, 30.5}}, 2},
	{"TR", "Turkey", MiddleEast, 70, City{"Istanbul", "TR", Coord{41.0, 29.0}}, 3},
	{"SA", "Saudi Arabia", MiddleEast, 33, City{"Riyadh", "SA", Coord{24.7, 46.7}}, 3},
	{"AE", "UAE", MiddleEast, 9, City{"Dubai", "AE", Coord{25.2, 55.3}}, 4},
	{"IR", "Iran", MiddleEast, 72, City{"Tehran", "IR", Coord{35.7, 51.4}}, 3.5},
	{"EG", "Egypt", Africa, 72, City{"Cairo", "EG", Coord{30.0, 31.2}}, 2},
	{"NG", "Nigeria", Africa, 108, City{"Lagos", "NG", Coord{6.5, 3.4}}, 1},
	{"ZA", "South Africa", Africa, 41, City{"Johannesburg", "ZA", Coord{-26.2, 28.0}}, 2},
	{"KE", "Kenya", Africa, 23, City{"Nairobi", "KE", Coord{-1.3, 36.8}}, 3},
	{"MA", "Morocco", Africa, 31, City{"Casablanca", "MA", Coord{33.6, -7.6}}, 1},
	{"IN", "India", SouthAsia, 750, City{"Mumbai", "IN", Coord{19.1, 72.9}}, 5.5},
	{"PK", "Pakistan", SouthAsia, 87, City{"Karachi", "PK", Coord{24.9, 67.1}}, 5},
	{"BD", "Bangladesh", SouthAsia, 66, City{"Dhaka", "BD", Coord{23.8, 90.4}}, 6},
	{"CN", "China", EastAsia, 1000, City{"Shanghai", "CN", Coord{31.2, 121.5}}, 8},
	{"JP", "Japan", EastAsia, 117, City{"Tokyo", "JP", Coord{35.7, 139.7}}, 9},
	{"KR", "South Korea", EastAsia, 50, City{"Seoul", "KR", Coord{37.6, 127.0}}, 9},
	{"ID", "Indonesia", EastAsia, 200, City{"Jakarta", "ID", Coord{-6.2, 106.8}}, 7},
	{"PH", "Philippines", EastAsia, 76, City{"Manila", "PH", Coord{14.6, 121.0}}, 8},
	{"VN", "Vietnam", EastAsia, 72, City{"Hanoi", "VN", Coord{21.0, 105.9}}, 7},
	{"TH", "Thailand", EastAsia, 54, City{"Bangkok", "TH", Coord{13.8, 100.5}}, 7},
	{"TW", "Taiwan", EastAsia, 21, City{"Taipei", "TW", Coord{25.0, 121.6}}, 8},
	{"AU", "Australia", Oceania, 23, City{"Sydney", "AU", Coord{-33.9, 151.2}}, 10},
	{"NZ", "New Zealand", Oceania, 4.5, City{"Auckland", "NZ", Coord{-36.8, 174.8}}, 12},
}

// Countries returns the full country table (a copy), sorted by descending
// Internet-user count.
func Countries() []Country {
	out := make([]Country, len(countries))
	copy(out, countries)
	sort.Slice(out, func(i, j int) bool {
		if out[i].InternetUsersM != out[j].InternetUsersM {
			return out[i].InternetUsersM > out[j].InternetUsersM
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// countryIndex maps a country code to its row in countries. Per-probe
// callers (diurnal phase, PoP placement) look countries up far more often
// than the table has rows, so the lookup must not scan it.
var countryIndex = func() map[string]int {
	idx := make(map[string]int, len(countries))
	for i := range countries {
		idx[countries[i].Code] = i
	}
	return idx
}()

// CountryByCode returns the country with the given code.
func CountryByCode(code string) (Country, error) {
	i, ok := countryIndex[code]
	if !ok {
		return Country{}, fmt.Errorf("geo: unknown country code %q", code)
	}
	return countries[i], nil
}

// RegionHub returns a representative city for a region: the capital of the
// region's largest country. Public-resolver PoPs and tier-1 backbones sit
// at region hubs.
func RegionHub(r Region) City {
	best := Country{}
	for _, c := range countries {
		if c.Region == r && c.InternetUsersM > best.InternetUsersM {
			best = c
		}
	}
	return best.Capital
}

// LocalHourAt returns the local hour-of-day (0..24, fractional) at the given
// simulated UTC hour in a timezone utcOffsetHours ahead of UTC (a country's
// UTCOffsetHours).
func LocalHourAt(utcOffsetHours, utcHour float64) float64 {
	h := math.Mod(utcHour+utcOffsetHours, 24)
	if h < 0 {
		h += 24
	}
	return h
}
