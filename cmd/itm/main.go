// Command itm builds an Internet traffic map over the simulated Internet
// and answers questions with it.
//
// Usage:
//
//	itm [flags] summary          world and ground-truth overview
//	itm [flags] map              build the map, print coverage and validation
//	itm [flags] activity [-n N]  top ASes by estimated relative activity
//	itm [flags] servers -owner NAME   serving footprint of an owner (TLS scans)
//	itm [flags] outage -as ASN   impact assessment for an AS outage
//	itm [flags] peering [-n N]   top recommended (hidden) peering links
//	itm [flags] export [-o F]    write the map's measured components as JSON
//	itm [flags] topo [-format dot|json] [-o F]   dump the world topology
//	itm [flags] diff             compare maps built on consecutive days
//	itm [flags] mrt -o F         export the route collector's MRT table dump
//
// Flags: -scale tiny|small|default, -seed N.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"itmap"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func main() {
	scale := flag.String("scale", "small", "world scale: tiny, small, or default")
	seed := flag.Int64("seed", 1, "world seed")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	cfg, err := world.ForScale(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	inet := itm.NewInternet(cfg)
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	switch cmd {
	case "summary":
		err = runSummary(inet)
	case "map":
		err = runMap(inet)
	case "activity":
		err = runActivity(inet, args)
	case "servers":
		err = runServers(inet, args)
	case "outage":
		err = runOutage(inet, args)
	case "peering":
		err = runPeering(inet, args)
	case "export":
		err = runExport(inet, args)
	case "topo":
		err = runTopo(inet, args)
	case "diff":
		err = runDiff(inet, args)
	case "mrt":
		err = runMRT(inet, args)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "itm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: itm [-scale tiny|small|default] [-seed N] <summary|map|activity|servers|outage|peering|export|topo|diff|mrt> [args]")
	flag.PrintDefaults()
}

func runSummary(inet *itm.Internet) error {
	top := inet.Top
	fmt.Printf("world: %d ASes, %d links, %d /24 prefixes, %d facilities, %d IXPs\n",
		top.NumASes(), top.NumLinks(), len(top.PrefixOwner), len(top.Facilities), len(top.IXPs))
	fmt.Printf("users: %.1fM across %d user prefixes\n",
		inet.Users.TotalUsers()/1e6, len(inet.Users.UserPrefixes()))
	fmt.Printf("services: %d in catalog; public resolver has %d PoPs\n",
		len(inet.Cat.Services), len(inet.PR.PoPs))
	mx := inet.Traffic.BuildMatrix()
	fmt.Printf("ground truth: %.3g bytes/day; top-5 owners carry %.0f%%\n",
		mx.TotalBytes, 100*mx.CumulativeTopShare(5))
	owners := mx.TopOwners()
	for i, o := range owners {
		if i >= 5 {
			break
		}
		fmt.Printf("  #%d %-12s AS%-6d %5.1f%%\n", i+1, top.ASes[o.ASN].Name, o.ASN, o.Share*100)
	}
	return nil
}

func runMap(inet *itm.Internet) error {
	m := itm.BuildMap(inet)
	fmt.Printf("map: %d active prefixes, %d ASes with activity signals\n",
		len(m.ActivePrefixes), len(m.Sources))
	v := itm.ValidateMap(inet, m)
	fmt.Printf("validation vs ground truth (reference-CDN logs):\n")
	fmt.Printf("  traffic in discovered prefixes:   %5.1f%%  (paper: 95%%)\n", v.PrefixTrafficRecall*100)
	fmt.Printf("  traffic in root-log ASes:         %5.1f%%  (paper: 60%%)\n", v.ASTrafficRecallRoots*100)
	fmt.Printf("  traffic in combined ASes:         %5.1f%%  (paper: 99%%)\n", v.ASTrafficRecallCombined*100)
	fmt.Printf("  false-discovery prefixes:         %5.2f%%  (paper: <1%%)\n", v.FalseDiscoveryFrac*100)
	fmt.Printf("  APNIC users covered:              %5.1f%%  (paper: 98%%)\n", v.APNICUserCoverage*100)
	fmt.Printf("  activity rank correlation:        %5.2f\n", v.ActivityRankCorr)
	return nil
}

func runActivity(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("activity", flag.ContinueOnError)
	n := fs.Int("n", 15, "how many ASes to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m := itm.BuildMap(inet)
	type row struct {
		asn itm.ASN
		act float64
	}
	var rows []row
	for asn, act := range m.ASActivity {
		rows = append(rows, row{asn, act})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].act != rows[j].act {
			return rows[i].act > rows[j].act
		}
		return rows[i].asn < rows[j].asn
	})
	fmt.Printf("%-8s %-16s %-3s %10s %8s\n", "ASN", "NAME", "CC", "ACTIVITY", "SHARE")
	for i, r := range rows {
		if i >= *n {
			break
		}
		a := inet.Top.ASes[r.asn]
		fmt.Printf("%-8d %-16s %-3s %10.3g %7.2f%%\n",
			r.asn, a.Name, a.Country, r.act, 100*m.ActivityShare(r.asn))
	}
	return nil
}

func runServers(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("servers", flag.ContinueOnError)
	ownerName := fs.String("owner", "", "owner name (e.g. MegaCDN); empty = reference CDN")
	if err := fs.Parse(args); err != nil {
		return err
	}
	owner := inet.Cat.ReferenceCDN
	if *ownerName != "" {
		found := false
		for _, asn := range inet.Top.ASNs() {
			if inet.Top.ASes[asn].Name == *ownerName {
				owner, found = asn, true
				break
			}
		}
		if !found {
			return fmt.Errorf("no AS named %q", *ownerName)
		}
	}
	s := itm.NewSession(inet)
	scan := s.Scan()
	servers := scan.ByOwner[owner]
	fmt.Printf("%s (AS%d): %d serving prefixes, %d cities, %d off-net host networks\n",
		inet.Top.ASes[owner].Name, owner, len(servers),
		len(scan.Locations(owner)), len(scan.OffNetHosts(owner)))
	for _, c := range scan.Locations(owner) {
		fmt.Printf("  site: %-16s %s\n", c.Name, c.Country)
	}
	return nil
}

func runOutage(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("outage", flag.ContinueOnError)
	asn := fs.Uint("as", 0, "ASN to fail (0 = the largest eyeball)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	target := itm.ASN(*asn)
	if target == 0 {
		best := 0.0
		for _, cand := range inet.Top.ASesOfType(topology.Eyeball) {
			if u := inet.Users.ASUsers(cand); u > best {
				best, target = u, cand
			}
		}
	}
	if _, ok := inet.Top.ASes[target]; !ok {
		return fmt.Errorf("unknown AS %d", target)
	}
	m := itm.BuildMap(inet)
	rep := m.OutageImpact(target)
	fmt.Printf("outage of AS%d (%s, %s):\n", rep.AS, rep.Name, rep.Country)
	fmt.Printf("  estimated activity share: %.2f%%\n", rep.ActivityShare*100)
	fmt.Printf("  active client prefixes:   %d\n", rep.ActivePrefixes)
	fmt.Printf("  serving prefixes lost:    %d\n", rep.HostedServers)
	fmt.Printf("  affected services:        %d\n", len(rep.AffectedServices))
	for _, dom := range rep.AffectedServices {
		if fb, ok := rep.Fallbacks[dom]; ok {
			fmt.Printf("    %-28s -> fallback %v\n", dom, fb)
		} else {
			fmt.Printf("    %-28s (no fallback found)\n", dom)
		}
	}
	return nil
}

func runPeering(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("peering", flag.ContinueOnError)
	n := fs.Int("n", 15, "how many candidates to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cands := itm.PeeringCandidates(inet, *n)
	fmt.Printf("%-28s %-28s %8s %6s %s\n", "A", "B", "SCORE", "FACS", "ACTUALLY LINKED")
	for _, c := range cands {
		linked := inet.Top.HasLink(c.A, c.B)
		fmt.Printf("%-28s %-28s %8.2f %6d %v\n",
			fmt.Sprintf("%s (AS%d)", inet.Top.ASes[c.A].Name, c.A),
			fmt.Sprintf("%s (AS%d)", inet.Top.ASes[c.B].Name, c.B),
			c.Score, c.SharedFacilities, linked)
	}
	return nil
}

func runExport(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m := itm.BuildMap(inet)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return m.Export(w)
}

func runTopo(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	format := fs.String("format", "dot", "output format: dot or json")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "dot":
		return inet.Top.ExportDOT(w)
	case "json":
		return inet.Top.ExportJSON(w)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

func runDiff(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	minShift := fs.Float64("min-shift", 0.002, "minimum activity-share change to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	days := itm.NewDailySessions(inet, 2)
	d := itm.DiffMaps(days[0].Map(), days[1].Map(), *minShift)
	fmt.Printf("day-over-day map diff:\n")
	fmt.Printf("  stable /24s:    %d (Jaccard %.3f)\n", d.StablePrefixes, d.Jaccard())
	fmt.Printf("  appeared /24s:  %d\n", len(d.PrefixesAppeared))
	fmt.Printf("  vanished /24s:  %d\n", len(d.PrefixesVanished))
	fmt.Printf("  activity shifts over %.2f%%: %d\n", *minShift*100, len(d.ActivityShifts))
	for i, sft := range d.ActivityShifts {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(d.ActivityShifts)-10)
			break
		}
		a := inet.Top.ASes[sft.ASN]
		fmt.Printf("    %-16s AS%-6d %+.3f%% (%.3f%% -> %.3f%%)\n",
			a.Name, sft.ASN, sft.Delta()*100, sft.Before*100, sft.After*100)
	}
	return nil
}

func runMRT(inet *itm.Internet, args []string) error {
	fs := flag.NewFlagSet("mrt", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	col := itm.CollectorFor(inet)
	return col.ExportMRT(w, inet.Paths, 0)
}
