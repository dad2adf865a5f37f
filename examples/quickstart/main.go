// Quickstart: build a simulated Internet, construct a traffic map from
// public measurements only, and check the map against ground truth.
package main

import (
	"fmt"

	"itmap"
)

func main() {
	// A small world builds in about a second; use itm.DefaultConfig for
	// the full-scale one.
	inet := itm.NewInternet(itm.SmallConfig(7))
	fmt.Printf("simulated Internet: %d ASes, %d /24s, %.0fM users\n",
		inet.Top.NumASes(), len(inet.Top.PrefixOwner), inet.Users.TotalUsers()/1e6)

	// Build the map. Under the hood this runs the paper's techniques:
	// ECS cache probing against the public resolver, root-DNS-log
	// crawling, Internet-wide TLS scans and ECS user→host mapping.
	tmap := itm.BuildMap(inet)
	fmt.Printf("traffic map: %d active /24s, %d ASes with activity estimates\n",
		len(tmap.ActivePrefixes), len(tmap.ASActivity))

	// The simulator knows the truth, so the map can be scored — the
	// validation Microsoft's CDN logs provide in the paper.
	v := itm.ValidateMap(inet, tmap)
	fmt.Printf("validation: %.1f%% of reference-CDN traffic in discovered prefixes (paper: 95%%)\n",
		v.PrefixTrafficRecall*100)
	fmt.Printf("            %.1f%% in ASes found by either technique (paper: 99%%)\n",
		v.ASTrafficRecallCombined*100)
	fmt.Printf("            activity-vs-truth rank correlation %.2f\n", v.ActivityRankCorr)

	// Weighted statistics are the point of the map: here, the share of
	// estimated activity by country.
	for _, code := range []string{"US", "IN", "FR"} {
		ci := tmap.CountryImpactOf(code)
		fmt.Printf("country %s: %.1f%% of estimated activity across %d active ASes\n",
			code, ci.ActivityShare*100, ci.ActiveASes)
	}
}
