package core

import (
	"slices"

	"itmap/internal/apnic"
	"itmap/internal/order"
	"itmap/internal/stats"
	"itmap/internal/topology"
	"itmap/internal/traffic"
)

// UsersValidation quantifies the users component against ground truth — the
// role Microsoft's CDN logs play in the paper's §3.1.2 validation.
type UsersValidation struct {
	// PrefixTrafficRecall: share of the reference CDN's traffic
	// originating in prefixes cache probing found ("95%").
	PrefixTrafficRecall float64
	// ASTrafficRecallRoots: share of reference-CDN traffic in ASes the
	// root-log crawl found ("60%").
	ASTrafficRecallRoots float64
	// ASTrafficRecallCombined: share in ASes found by either technique
	// ("99%").
	ASTrafficRecallCombined float64
	// FalseDiscoveryFrac: fraction of found prefixes with zero
	// reference-CDN traffic ("<1%" of identified prefixes).
	FalseDiscoveryFrac float64
	// APNICUserCoverage: share of published APNIC-style users living in
	// ASes cache probing identified ("98%").
	APNICUserCoverage float64
	// ActivityRankCorr is the Spearman correlation between the map's
	// per-AS activity estimate and true per-AS client traffic.
	ActivityRankCorr float64
}

// ValidateUsers scores a map document's users component against the
// simulator's ground-truth matrix and the published APNIC-like estimates.
func ValidateUsers(doc *MapDocument, mx *traffic.Matrix, est *apnic.Estimates) UsersValidation {
	var v UsersValidation

	// Prefix-granularity traffic-weighted recall.
	var total, found float64
	for _, p := range order.Keys(mx.RefCDNByPrefix) {
		b := mx.RefCDNByPrefix[p]
		total += b
		if _, ok := slices.BinarySearch(doc.ActivePrefixes, p); ok {
			found += b
		}
	}
	if total > 0 {
		v.PrefixTrafficRecall = found / total
	}

	// AS-granularity recall for root logs and for the combination.
	var rootsFound, combFound, asTotal float64
	for _, asn := range order.Keys(mx.RefCDNByAS) {
		b := mx.RefCDNByAS[asn]
		asTotal += b
		src := doc.Sources[asn]
		if src&FromRootLogs != 0 {
			rootsFound += b
		}
		if src != 0 {
			combFound += b
		}
	}
	if asTotal > 0 {
		v.ASTrafficRecallRoots = rootsFound / asTotal
		v.ASTrafficRecallCombined = combFound / asTotal
	}

	// False discoveries: found prefixes that never contacted the CDN.
	nFP := 0
	for _, p := range doc.ActivePrefixes {
		if mx.RefCDNByPrefix[p] == 0 {
			nFP++
		}
	}
	if len(doc.ActivePrefixes) > 0 {
		v.FalseDiscoveryFrac = float64(nFP) / float64(len(doc.ActivePrefixes))
	}

	// APNIC coverage: published users in identified ASes.
	if est != nil {
		var estTotal, estFound float64
		for _, asn := range order.Keys(est.ByAS) {
			u := est.ByAS[asn]
			estTotal += u
			if doc.Sources[asn]&FromCacheProbe != 0 {
				estFound += u
			}
		}
		if estTotal > 0 {
			v.APNICUserCoverage = estFound / estTotal
		}
	}

	// Rank agreement of activity estimates with true client traffic. The
	// pair order is pinned so Spearman's tie-breaking sees a stable input.
	var xs, ys []float64
	for _, asn := range order.Keys(doc.ASActivity) {
		truth := mx.ClientASBytes[asn]
		if truth == 0 {
			continue
		}
		xs = append(xs, doc.ASActivity[asn])
		ys = append(ys, truth)
	}
	v.ActivityRankCorr = stats.Spearman(xs, ys)
	return v
}

// MappingValidation scores the user→host mapping component.
type MappingValidation struct {
	// Checked is the number of (domain, clientAS) pairs compared.
	Checked int
	// Agreement is the fraction whose measured serving prefix matches
	// the ground-truth assignment.
	Agreement float64
}

// ValidateMapping compares a map document's measured mapping against the
// traffic model's actual assignments for ECS DNS services.
func ValidateMapping(doc *MapDocument, tm *traffic.Model) MappingValidation {
	var val MappingValidation
	agree := 0
	for _, mp := range doc.Mappings {
		svc, ok := tm.Cat.ByDomain(mp.Domain)
		if !ok {
			continue
		}
		shares := tm.Assign(svc, topology.ASN(mp.ClientAS))
		if len(shares) == 0 {
			continue
		}
		val.Checked++
		for _, ss := range shares {
			if ss.Site.Prefix == mp.Serving {
				agree++
				break
			}
		}
	}
	if val.Checked > 0 {
		val.Agreement = float64(agree) / float64(val.Checked)
	}
	return val
}
