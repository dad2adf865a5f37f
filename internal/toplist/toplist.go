// Package toplist generates Alexa/Umbrella-style ranked domain lists from
// the simulated Internet's query volumes, with provider-specific sampling
// noise. The paper's related work ([54], "A long way to the top") found
// such lists unstable and coarse — "top lists capture aspects of site
// popularity, but do not provide a fine-grained understanding of which or
// how users are being served" — and this package makes those limitations
// measurable against ground truth.
package toplist

import (
	"math"
	"sort"

	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/topology"
	"itmap/internal/traffic"
)

// Provider styles with different measurement bases and noise levels.
type Provider string

// Provider values.
const (
	// PanelProvider ranks by a browser-panel sample (web services only,
	// noisy — the Alexa style).
	PanelProvider Provider = "panel"
	// ResolverProvider ranks by DNS query counts at a public resolver
	// (all query-generating services, less noisy — the Umbrella style).
	ResolverProvider Provider = "resolver"
)

// List is one day's ranked list.
type List struct {
	Provider Provider
	Day      int
	// Domains in rank order (Domains[0] is rank 1).
	Domains []string
}

// Generate builds the provider's list for each of days. Noise is
// deterministic per (provider, day, service); the daily query volume it
// scales is the same on every day, so it is summed once for all of them.
func Generate(tm *traffic.Model, provider Provider, days []int, depth int) []*List {
	type scored struct {
		svc    *services.Service
		volume float64
	}
	sigma := 0.10
	if provider == PanelProvider {
		sigma = 0.35
	}
	var svcs []*services.Service
	for _, svc := range tm.Cat.Services {
		if provider == PanelProvider && svc.Kind == services.Anycast {
			// Panels observe page loads; infrastructure anycast
			// services are under-represented.
			continue
		}
		svcs = append(svcs, svc)
	}
	// Daily query volume across all prefixes, by ascending ASN and prefix.
	var prefixes []topology.PrefixID
	for _, asn := range tm.Top.ASNs() {
		prefixes = append(prefixes, tm.Top.ASes[asn].Prefixes...)
	}
	volumes := tm.QueriesPerDay(prefixes, svcs)
	base := make([]scored, len(svcs))
	for i, svc := range svcs {
		base[i] = scored{svc, volumes[i]}
	}
	lists := make([]*List, len(days))
	for i, day := range days {
		// The day's volumes, sampled with provider noise.
		rows := make([]scored, len(base))
		for j, b := range base {
			noise := randx.HashLognormal(0, sigma,
				uint64(day), providerSeed(provider), uint64(b.svc.ID))
			rows[j] = scored{b.svc, b.volume * noise}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].volume != rows[j].volume {
				return rows[i].volume > rows[j].volume
			}
			return rows[i].svc.Domain < rows[j].svc.Domain
		})
		if depth > 0 && len(rows) > depth {
			rows = rows[:depth]
		}
		l := &List{Provider: provider, Day: day}
		for _, r := range rows {
			l.Domains = append(l.Domains, r.svc.Domain)
		}
		lists[i] = l
	}
	return lists
}

func providerSeed(p Provider) uint64 {
	if p == PanelProvider {
		return 0x9a9e1
	}
	return 0x4e501
}

// TopKChurn returns the fraction of the top-k entries that differ between
// two days' lists (0 = identical, 1 = disjoint).
func TopKChurn(a, b *List, k int) float64 {
	if k > len(a.Domains) {
		k = len(a.Domains)
	}
	if k > len(b.Domains) {
		k = len(b.Domains)
	}
	if k == 0 {
		return 0
	}
	inA := map[string]bool{}
	for _, d := range a.Domains[:k] {
		inA[d] = true
	}
	same := 0
	for _, d := range b.Domains[:k] {
		if inA[d] {
			same++
		}
	}
	return 1 - float64(same)/float64(k)
}

// WeightBy assigns each listed domain a rank-derived weight (the common
// research hack the paper criticizes: using list rank as a traffic proxy).
// Weights follow the standard 1/rank heuristic, normalized.
func (l *List) WeightBy() map[string]float64 {
	out := map[string]float64{}
	total := 0.0
	for i := range l.Domains {
		w := 1 / float64(i+1)
		out[l.Domains[i]] = w
		total += w
	}
	for d := range out {
		out[d] /= total
	}
	return out
}

// TrueByteShares returns each domain's true share of catalog traffic — the
// quantity rank-weighting tries to proxy.
func TrueByteShares(tm *traffic.Model, mx *traffic.Matrix) map[string]float64 {
	out := map[string]float64{}
	catalogTotal := mx.TotalBytes - mx.TailBytes
	if catalogTotal <= 0 {
		return out
	}
	for _, svc := range tm.Cat.Services {
		out[svc.Domain] = mx.PerService[svc.ID] / catalogTotal
	}
	return out
}

// shareError sums |proxy − truth| over domains (total variation distance).
func ShareError(proxy, truth map[string]float64) float64 {
	seen := map[string]bool{}
	total := 0.0
	for _, d := range order.Keys(proxy) {
		total += math.Abs(proxy[d] - truth[d])
		seen[d] = true
	}
	for _, d := range order.Keys(truth) {
		if !seen[d] {
			total += truth[d]
		}
	}
	return total / 2
}
