package dnssim

import (
	"sort"

	"itmap/internal/faults"
	"itmap/internal/topology"
)

// RootLetter is one of the 13 root server identities. Some operators
// anonymize resolver addresses in published logs (the paper notes "more and
// more root operators anonymize the data in ways that limit coverage");
// anonymized letters contribute nothing to the crawl.
type RootLetter struct {
	Letter     byte
	Operator   string
	Anonymized bool
	// ResearchAccess marks letters run by research organizations (ISI,
	// UMD in the paper) that could provide real-time access.
	ResearchAccess bool
}

// RootLogEntry aggregates one resolver's Chromium-probe queries at one
// letter over a day. Only the resolver (not the client) is visible —
// the core limitation of approach 2.
type RootLogEntry struct {
	ResolverPrefix topology.PrefixID
	ResolverASN    topology.ASN
	Queries        float64
}

// ChromiumSource supplies daily Chromium random-label query loads. The
// traffic model implements it.
type ChromiumSource interface {
	// ChromiumRootQueries returns, for the given day, the daily count of
	// Chromium interception-probe queries reaching the roots, broken
	// down by the resolver that forwarded them.
	ChromiumRootQueries(day int) []RootLogEntry
}

// RootSystem is the 13-letter root with per-letter anonymization policy.
type RootSystem struct {
	Letters []RootLetter

	faults *faults.Plan
}

// SetFaultPlan wires a fault schedule into the log pipeline: letters the
// plan marks down for a day publish nothing that day. Nil restores
// fault-free behaviour exactly.
//
//itmlint:allow deadexport the one switch for the root-letter outage model (faults.Plan.LetterDown, rootlogs LettersDown), whose counter family the stable exposition lists; no campaign flips it yet
func (rs *RootSystem) SetFaultPlan(pl *faults.Plan) { rs.faults = pl }

// NewRootSystem builds the root system; anonFrac of the 13 letters (rounded)
// publish only anonymized logs.
func NewRootSystem(anonFrac float64) *RootSystem {
	ops := []string{
		"VeriSign-A", "USC-ISI", "Cogent", "UMD", "NASA", "ISC",
		"DoD", "ARL", "Netnod", "VeriSign-J", "RIPE", "ICANN", "WIDE",
	}
	nAnon := int(anonFrac*13 + 0.5)
	rs := &RootSystem{}
	for i := 0; i < 13; i++ {
		rs.Letters = append(rs.Letters, RootLetter{
			Letter:         byte('A' + i),
			Operator:       ops[i],
			Anonymized:     i >= 13-nAnon,
			ResearchAccess: ops[i] == "USC-ISI" || ops[i] == "UMD",
		})
	}
	return rs
}

// DayLogs returns the per-letter logs for a day. Chromium queries have
// random labels, so they never hit resolver caches and spread uniformly
// across the 13 letters. Anonymized letters return entries with the
// resolver identity zeroed out. Letters the fault plan marks down for the
// day are absent from the map entirely — the crawl sees a missing pipeline,
// not an empty one.
func (rs *RootSystem) DayLogs(day int, src ChromiumSource) map[byte][]RootLogEntry {
	entries := src.ChromiumRootQueries(day)
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].ResolverPrefix < entries[j].ResolverPrefix
	})
	out := map[byte][]RootLogEntry{}
	for _, l := range rs.Letters {
		if rs.faults.LetterDown(l.Letter, day) {
			continue
		}
		logs := make([]RootLogEntry, 0, len(entries))
		for _, e := range entries {
			share := e
			share.Queries = e.Queries / 13
			if l.Anonymized {
				share.ResolverPrefix = 0
				share.ResolverASN = 0
			}
			logs = append(logs, share)
		}
		out[l.Letter] = logs
	}
	return out
}
