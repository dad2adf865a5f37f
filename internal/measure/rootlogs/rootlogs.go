// Package rootlogs implements the paper's §3.1.2 approach 2: crawling root
// DNS logs for Chromium's random-label interception probes. Probe counts
// per recursive resolver proxy client activity; with the assumption that
// clients share their resolver's AS, the crawl locates client ASes and
// estimates their relative activity. The crawl only sees letters that do
// not anonymize logs, and public-resolver egress hides those clients — the
// biases §3.1.3 discusses.
package rootlogs

import (
	"itmap/internal/dnssim"
	"itmap/internal/topology"
)

// Crawl is the outcome of crawling one day of root logs.
type Crawl struct {
	// ActivityByResolverAS is the Chromium query volume attributed to
	// each resolver's AS across usable letters.
	ActivityByResolverAS map[topology.ASN]float64
	// ActivityByResolverPrefix keeps the finer per-resolver-address
	// counts, which resolver-client association (§3.1.3) can
	// re-attribute to client networks.
	ActivityByResolverPrefix map[topology.PrefixID]float64
	// LettersUsed is how many of the 13 letters contributed.
	LettersUsed int
	// HiddenQueries counts queries visible only as anonymized records.
	HiddenQueries float64
}

// CrawlDay collects one day's logs from every non-anonymized letter and
// aggregates Chromium query counts per resolver AS.
func CrawlDay(rs *dnssim.RootSystem, src dnssim.ChromiumSource, day int) *Crawl {
	logs := rs.DayLogs(day, src)
	c := &Crawl{
		ActivityByResolverAS:     map[topology.ASN]float64{},
		ActivityByResolverPrefix: map[topology.PrefixID]float64{},
	}
	for _, l := range rs.Letters {
		entries := logs[l.Letter]
		if l.Anonymized {
			for _, e := range entries {
				c.HiddenQueries += e.Queries
			}
			continue
		}
		c.LettersUsed++
		for _, e := range entries {
			c.ActivityByResolverAS[e.ResolverASN] += e.Queries
			c.ActivityByResolverPrefix[e.ResolverPrefix] += e.Queries
		}
	}
	return c
}

// ClientASes returns ASes the crawl identifies as hosting clients, under
// the clients-follow-their-resolver assumption. The public resolver's own
// AS is excluded: its egress aggregates clients from everywhere and places
// them nowhere.
func (c *Crawl) ClientASes(publicResolverOwner topology.ASN) map[topology.ASN]float64 {
	out := map[topology.ASN]float64{}
	for asn, q := range c.ActivityByResolverAS {
		if asn == publicResolverOwner {
			continue
		}
		out[asn] = q
	}
	return out
}
