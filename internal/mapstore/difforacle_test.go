package mapstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"itmap/internal/core"
	"itmap/internal/order"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// The oracle for the epoch diff: what the parent commit did on every append
// and every /v1/diff — re-parse the document's six users sections into typed
// maps (core.ImportUsers) and run core.DiffMaps over two of them — kept here
// verbatim (package qualifiers and an oracle prefix aside) now that the
// store diffs the codec's own typed actives and its activity index instead.

func oracleCoverageFromString(s string) core.Coverage {
	switch s {
	case "probed-ok":
		return core.CoverageProbedOK
	case "gave-up":
		return core.CoverageGaveUp
	case "stale":
		return core.CoverageStale
	default:
		return core.CoverageUnknown
	}
}

func oracleSourceFromString(s string) core.ActivitySource {
	switch s {
	case "cache-probe":
		return core.FromCacheProbe
	case "root-logs":
		return core.FromRootLogs
	case "cache-probe+root-logs":
		return core.FromCacheProbe | core.FromRootLogs
	default:
		return 0
	}
}

// oracleImportUsers is the parent's core.ImportUsers: it reconstructs the users component from a document (the
// services/routes components need live scan objects and are not restored).
func oracleImportUsers(doc *core.MapDocument) (core.UsersComponent, error) {
	uc := core.UsersComponent{
		ActivePrefixes: make(map[topology.PrefixID]bool, len(doc.ActivePrefixes)),
		PrefixHitRate:  make(map[topology.PrefixID]float64, len(doc.PrefixHitRates)),
		ASActivity:     make(map[topology.ASN]float64, len(doc.ASActivity)),
		Sources:        make(map[topology.ASN]core.ActivitySource, len(doc.Sources)),
		Coverage:       make(map[topology.PrefixID]core.Coverage, len(doc.Coverage)),
		ASConfidence:   make(map[topology.ASN]float64, len(doc.ASConfidence)),
	}
	for _, s := range doc.ActivePrefixes {
		p, err := core.ParsePrefix(s)
		if err != nil {
			return uc, err
		}
		uc.ActivePrefixes[p] = true
	}
	for s, hr := range doc.PrefixHitRates {
		p, err := core.ParsePrefix(s)
		if err != nil {
			return uc, err
		}
		uc.PrefixHitRate[p] = hr
	}
	for s, act := range doc.ASActivity {
		asn, err := oracleParseASNKey(s)
		if err != nil {
			return uc, err
		}
		uc.ASActivity[asn] = act
	}
	for s, src := range doc.Sources {
		asn, err := oracleParseASNKey(s)
		if err != nil {
			return uc, err
		}
		uc.Sources[asn] = oracleSourceFromString(src)
	}
	for s, cov := range doc.Coverage {
		p, err := core.ParsePrefix(s)
		if err != nil {
			return uc, err
		}
		uc.Coverage[p] = oracleCoverageFromString(cov)
	}
	for s, v := range doc.ASConfidence {
		asn, err := oracleParseASNKey(s)
		if err != nil {
			return uc, err
		}
		uc.ASConfidence[asn] = v
	}
	return uc, nil
}

// oracleParseASNKey parses a decimal ASN document key without allocating on the
// success path (ingest parses tens of thousands per epoch).
func oracleParseASNKey(s string) (topology.ASN, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("core: bad ASN %q: %w", s, err)
	}
	return topology.ASN(v), nil
}

// oracleDiffMaps is the parent's core.DiffMaps: it compares two maps' users components. minShift filters activity
// shifts (absolute share change) worth reporting.
func oracleDiffMaps(before, after *core.TrafficMap, minShift float64) *core.MapDiff {
	d := &core.MapDiff{}
	for p := range after.Users.ActivePrefixes {
		if before.Users.ActivePrefixes[p] {
			d.StablePrefixes++
		} else {
			d.PrefixesAppeared = append(d.PrefixesAppeared, p)
		}
	}
	for p := range before.Users.ActivePrefixes {
		if !after.Users.ActivePrefixes[p] {
			d.PrefixesVanished = append(d.PrefixesVanished, p)
		}
	}
	slices.Sort(d.PrefixesAppeared)
	slices.Sort(d.PrefixesVanished)

	shares := func(m *core.TrafficMap) map[topology.ASN]float64 {
		total := order.SumValues(m.Users.ASActivity)
		out := map[topology.ASN]float64{}
		if total == 0 {
			return out
		}
		for asn, v := range m.Users.ASActivity {
			out[asn] = v / total
		}
		return out
	}
	sb, sa := shares(before), shares(after)
	seen := map[topology.ASN]bool{}
	for asn := range sb {
		seen[asn] = true
	}
	for asn := range sa {
		seen[asn] = true
	}
	for asn := range seen {
		shift := core.ActivityShift{ASN: asn, Before: sb[asn], After: sa[asn]}
		if shift.Delta() >= minShift || shift.Delta() <= -minShift {
			d.ActivityShifts = append(d.ActivityShifts, shift)
		}
	}
	sort.Slice(d.ActivityShifts, func(i, j int) bool {
		di, dj := math.Abs(d.ActivityShifts[i].Delta()), math.Abs(d.ActivityShifts[j].Delta())
		if di != dj {
			return di > dj
		}
		return d.ActivityShifts[i].ASN < d.ActivityShifts[j].ASN
	})
	return d
}

// oracleDiffEpochs is the parent's diffEpochs over users components imported
// from the two epochs' documents.
func oracleDiffEpochs(t *testing.T, ea, eb *Epoch, minShift float64) *DiffDocument {
	t.Helper()
	ua, err := oracleImportUsers(ea.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := oracleImportUsers(eb.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ma := &core.TrafficMap{Users: ua}
	mb := &core.TrafficMap{Users: ub}
	d := oracleDiffMaps(ma, mb, minShift)
	out := &DiffDocument{
		EpochA:         ea.ID,
		EpochB:         eb.ID,
		AtA:            ea.At,
		AtB:            eb.At,
		StablePrefixes: d.StablePrefixes,
		Jaccard:        d.Jaccard(),
		Appeared:       make([]string, 0, len(d.PrefixesAppeared)),
		Vanished:       make([]string, 0, len(d.PrefixesVanished)),
		Shifts:         make([]ShiftEntry, 0, len(d.ActivityShifts)),
	}
	for _, p := range d.PrefixesAppeared {
		out.Appeared = append(out.Appeared, p.String())
	}
	for _, p := range d.PrefixesVanished {
		out.Vanished = append(out.Vanished, p.String())
	}
	for _, sh := range d.ActivityShifts {
		out.Shifts = append(out.Shifts, ShiftEntry{
			ASN: uint32(sh.ASN), Before: sh.Before, After: sh.After, Delta: sh.Delta(),
		})
	}
	return out
}

// diffOracleStores are the epoch sequences the diff is compared over: two
// seeded campaigns whose days share anything from no section to all of them
// (an identical re-ingest included), an empty document among full ones,
// epochs with nothing in common, and a zero-activity epoch.
func diffOracleStores(t *testing.T) map[string][]*core.MapDocument {
	t.Helper()
	empty := &core.MapDocument{Version: 1}
	other := &core.MapDocument{
		Version:        1,
		ActivePrefixes: []string{"8.8.4.0/24", "8.8.8.0/24"},
		ASActivity:     map[string]float64{"15169": 3, "13335": 1},
	}
	zero := sampleDoc()
	for asn := range zero.ASActivity {
		zero.ASActivity[asn] = 0
	}
	return map[string][]*core.MapDocument{
		"seed 1":    seededDocs(1, 8),
		"seed 7":    seededDocs(7, 8),
		"empty":     {sampleDoc(), empty, cloneDoc(empty), docAt(1)},
		"disjoint":  {sampleDoc(), other, sampleDoc()},
		"identical": {sampleDoc(), sampleDoc(), sampleDoc()},
		"zero":      {sampleDoc(), zero, docAt(2)},
	}
}

// TestDiffMatchesImportUsersOracle: for every ordered pair of epochs of every
// sequence, at thresholds from "report everything" up, the store's diff is
// DeepEqual to the parent's and /v1/diff serves the parent's bytes — on the
// store that ingested the documents and on the one recovered from its
// journal, whose actives come from the decoder instead of the encoder.
func TestDiffMatchesImportUsersOracle(t *testing.T) {
	for name, docs := range diffOracleStores(t) {
		w, rec := openJournal(t, docs, make([]*core.MeshDocument, len(docs)), journalShapes[0])
		recovered, err := RecoverStore(w, rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		built := NewStore()
		for d, doc := range docs {
			if _, err := built.Append(simtime.Time(d)*simtime.Day, cloneDoc(doc)); err != nil {
				t.Fatalf("%s day %d: %v", name, d, err)
			}
		}
		sharedSeen := false
		for side, s := range map[string]*Store{"built": built, "recovered": recovered} {
			h := NewHandler(s)
			for _, ea := range s.Snapshot() {
				sharedSeen = sharedSeen || ea.SharedSections == sectionCount
				for _, eb := range s.Snapshot() {
					for _, minShift := range []float64{0, 1e-12, defaultMinShift, 0.2} {
						want := oracleDiffEpochs(t, ea, eb, minShift)
						if got := diffEpochs(ea, eb, minShift); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s: diff %d→%d at %v = %+v, oracle %+v", name, side, ea.ID, eb.ID, minShift, got, want)
						}
						wantBody, _, err := jsonBody(want)
						if err != nil {
							t.Fatal(err)
						}
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
							fmt.Sprintf("/v1/diff/%d/%d?min_shift=%v", ea.ID, eb.ID, minShift), nil))
						if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantBody) {
							t.Fatalf("%s %s: GET /v1/diff/%d/%d?min_shift=%v = %d\n%s\noracle:\n%s",
								name, side, ea.ID, eb.ID, minShift, rec.Code, rec.Body.Bytes(), wantBody)
						}
					}
				}
			}
		}
		if name == "identical" && !sharedSeen {
			t.Errorf("%s: no epoch shared every section: the shared-actives path went untested", name)
		}
	}
}

// TestAppendStillRejectsMalformedKeys: core.ImportUsers was the second
// parser of a document's keys, not the first — the encoder runs before it
// on every append and parses the same six sections, labels included — so
// every malformed-key document the parent's Append turned away is still
// turned away, by the encoder (ErrEncode), and nothing is published.
func TestAppendStillRejectsMalformedKeys(t *testing.T) {
	cases := map[string]func(*core.MapDocument){
		"actives: bad prefix":          func(d *core.MapDocument) { d.ActivePrefixes = append(d.ActivePrefixes, "zzz") },
		"actives: not a /24":           func(d *core.MapDocument) { d.ActivePrefixes = append(d.ActivePrefixes, "10.0.0.0/8") },
		"actives: octet out of range":  func(d *core.MapDocument) { d.ActivePrefixes = append(d.ActivePrefixes, "1.0.256.0/24") },
		"hit rates: bad prefix":        func(d *core.MapDocument) { d.PrefixHitRates["1.0.0/24"] = 0.5 },
		"hit rates: trailing garbage":  func(d *core.MapDocument) { d.PrefixHitRates["1.0.0.0/24x"] = 0.5 },
		"activity: bad ASN":            func(d *core.MapDocument) { d.ASActivity["AS64500"] = 1 },
		"activity: ASN over 32 bits":   func(d *core.MapDocument) { d.ASActivity["4294967296"] = 1 },
		"activity: empty ASN":          func(d *core.MapDocument) { d.ASActivity[""] = 1 },
		"sources: bad ASN":             func(d *core.MapDocument) { d.Sources["-1"] = "root-logs" },
		"sources: unknown label":       func(d *core.MapDocument) { d.Sources["64500"] = "hearsay" },
		"coverage: bad prefix":         func(d *core.MapDocument) { d.Coverage["1.0.0.1/24"] = "stale" },
		"coverage: unknown label":      func(d *core.MapDocument) { d.Coverage["1.0.0.0/24"] = "somewhat" },
		"confidence: bad ASN":          func(d *core.MapDocument) { d.ASConfidence["64500 "] = 1 },
		"confidence: ASN over 32 bits": func(d *core.MapDocument) { d.ASConfidence["99999999999"] = 1 },
	}
	for name, corrupt := range cases {
		doc := sampleDoc()
		corrupt(doc)
		// The keys the parent's second parser would have refused are exactly
		// the ones the encoder refuses first; the labels it let through
		// (unknown ones decayed to zero values) the encoder refuses too.
		_, importErr := oracleImportUsers(doc)
		s := NewStore()
		if _, err := s.Append(0, doc); !errors.Is(err, ErrEncode) {
			t.Errorf("%s: Append = %v, want ErrEncode (parent's ImportUsers said: %v)", name, err, importErr)
		}
		if s.Len() != 0 {
			t.Errorf("%s: a rejected document was published", name)
		}
	}
}
