package mapstore_test

// The serving stack and the model (model_test.go) driven in lock-step
// through seeded operation sequences. An op is one line, the form shrunk
// repros are printed and committed in (testdata/model/*.txt):
//
//	boot B              crash and reboot: reopen the WAL from what the disk
//	                    holds, on a file system that dies after B more bytes
//	                    (0: never), and RecoverStore
//	map S | mesh S      append the next day's map (and mesh), drawn from seed S
//	same                append the latest epoch again, mesh and all
//	respell S           append the latest epoch with one field of its JSON
//	                    replaced, imported: keys or prefixes with leading
//	                    zeros, alone or beside the canonical spelling, or a
//	                    list emptied to []
//	bad S               a document to refuse: JSON with a malformed key or
//	                    label (the import or the append refuses it) or a
//	                    value the wire cannot carry (the append refuses it)
//	get URL [I] [tp]    GET; with I (cur, stale, foreign, list, star), GET
//	                    again under that If-None-Match; tp adds a traceparent
//	post URL            the wrong method
//	burst N             N concurrent GETs through an admission valve
//
// After every op the two must agree on status and body byte for byte (or,
// for /healthz, /v1/slo and /v1/obs/history*, on status, content type and a
// body that parses), and on whether an append or a recovery was refused.
// Validators are held to their semantics in a ledger: a URL's ETag changes
// exactly when its body does, and one ETag never names two bodies — across
// appends, crashes and recoveries.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

type runner struct {
	m     model
	fs    *wal.FaultFS
	store *mapstore.Store
	h     http.Handler
	days  int
	// ledger holds, per representation scope (see answer.scope), every ETag
	// served and the body it named.
	ledger map[string]*validators
	// last is the latest validator served, a foreign one for the next URL.
	last struct{ scope, tag string }
	seen map[string]int // outcomes reached
}

type validators struct {
	first  string
	bodies map[string]string // ETag → body
	tags   map[string]string // body → ETag
}

// runOps runs one sequence against a fresh store, registry and history ring,
// and returns the first disagreement. seen, if not nil, counts the outcomes.
func runOps(ops []string, seen map[string]int) error {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	defer history.Swap(history.Swap(history.NewRing(0)))
	if seen == nil {
		seen = map[string]int{}
	}
	r := &runner{ledger: map[string]*validators{}, seen: seen}
	if err := r.boot(wal.NewMemFS(), 0); err != nil {
		return err
	}
	for i, op := range ops {
		if err := r.do(op); err != nil {
			return fmt.Errorf("op %d (%s): %w", i+1, op, err)
		}
	}
	return nil
}

func (r *runner) do(op string) error {
	f := strings.Fields(op)
	num := func(i int) int64 {
		if i >= len(f) {
			return 0
		}
		v, _ := strconv.ParseInt(f[i], 10, 64)
		return v
	}
	switch f[0] {
	case "boot":
		return r.boot(r.fs.CrashImage(), num(1))
	case "map", "mesh", "same", "respell", "bad":
		return r.append(f[0], num(1))
	case "get":
		return r.get(f[1], f[2:])
	case "post":
		return r.check(r.m.answer(http.MethodPost, f[1]), serve(r.h, http.MethodPost, f[1], "", false), "")
	case "burst":
		return r.burst(int(num(1)))
	}
	return errors.New("unknown op")
}

func (r *runner) boot(disk *wal.MemFS, crash int64) error {
	r.fs = wal.NewFaultFS(disk, wal.FaultPlan{CrashAfterBytes: crash})
	w, rec, err := wal.Open(wal.Options{Dir: "wal", FS: r.fs})
	if err != nil {
		return fmt.Errorf("reopening the WAL: %w", err)
	}
	if r.store, err = mapstore.RecoverStore(w, rec); err != nil {
		return err
	}
	if r.store.Len() != len(r.m.epochs) {
		return fmt.Errorf("recovered %d epochs, %d were acknowledged", r.store.Len(), len(r.m.epochs))
	}
	r.h = mapstore.NewHandler(r.store)
	return nil
}

// append hands the store the op's documents. The model refuses bad ones, at
// the import or with ErrEncode; any other may fail only once the file
// system has died, and the store must then publish nothing.
func (r *runner) append(kind string, seed int64) error {
	r.days++
	at := simtime.Time(r.days) * simtime.Day
	doc, mesh, err := r.next(kind, randx.New(seed))
	if doc != nil {
		_, err = r.store.AppendDocMesh(at, cloneDoc(doc), cloneMesh(mesh))
	}
	switch {
	case kind == "bad":
		if doc != nil && !errors.Is(err, mapstore.ErrEncode) {
			return fmt.Errorf("append = %v; the model refuses the document with ErrEncode", err)
		}
		r.seen["refused"]++
	case err == nil:
		if err := r.m.publish(at, doc, mesh); err != nil {
			return err
		}
	case doc == nil || !r.fs.Crashed():
		return fmt.Errorf("append refused: %v", err)
	default:
		r.seen["crash"]++
	}
	if r.store.Len() != len(r.m.epochs) {
		return fmt.Errorf("the store holds %d epochs, the model %d", r.store.Len(), len(r.m.epochs))
	}
	return nil
}

func (r *runner) get(target string, flags []string) error {
	tp, foreign := slices.Contains(flags, "tp"), r.last
	want := r.m.answer(http.MethodGet, target)
	got := serve(r.h, http.MethodGet, target, "", tp)
	if err := r.check(want, got, ""); err != nil {
		return err
	}
	// The validators to send: the one just served, the first this URL was
	// served under, the latest served on another URL — each a made-up one
	// where there is none — a list, and "*".
	tag, made := got.Header().Get("ETag"), `"itm-e0-deadbeef"`
	cur, stale, other := cmp.Or(tag, made), made, made
	if v := r.ledger[want.scope]; v != nil && v.first != tag {
		stale = v.first
	}
	if foreign.scope != want.scope {
		other = cmp.Or(foreign.tag, made)
	}
	inms := map[string]string{"cur": cur, "stale": stale, "foreign": other, "list": made + ", " + cur, "star": "*"}
	inm := ""
	for _, f := range flags {
		inm = cmp.Or(inms[f], inm)
	}
	if inm == "" {
		return nil
	}
	if want.status == http.StatusOK && want.tagged && matches(inm, tag) {
		want = answer{status: http.StatusNotModified}
	}
	return r.check(want, serve(r.h, http.MethodGet, target, inm, tp), tag)
}

func serve(h http.Handler, method, target, inm string, traced bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if traced {
		req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// check compares one response with the model's answer; a 304 must carry
// the validator cur and no body.
func (r *runner) check(want answer, got *httptest.ResponseRecorder, cur string) error {
	r.seen[strconv.Itoa(got.Code)]++
	tag, body := got.Header().Get("ETag"), got.Body.String()
	switch {
	case got.Code != want.status:
		return fmt.Errorf("status %d, the model says %d\n served: %.300q\n model:  %.300q", got.Code, want.status, body, want.body)
	case want.status == http.StatusNotModified:
		if body != "" || tag != cur {
			return fmt.Errorf("304 with %d body bytes and ETag %s, want none and %s", len(body), tag, cur)
		}
		return nil
	case got.Header().Get("Content-Type") != want.ctype:
		return fmt.Errorf("Content-Type %q, the model says %q", got.Header().Get("Content-Type"), want.ctype)
	case want.body != nil && body != string(want.body):
		return fmt.Errorf("bodies differ\n served: %.600q\n model:  %.600q", body, want.body)
	case want.body == nil && !json.Valid(got.Body.Bytes()):
		return fmt.Errorf("body is not JSON: %.300q", body)
	case want.status != http.StatusOK || !want.tagged:
		return nil
	case tag == "":
		return errors.New("a cached route answered 200 without an ETag")
	}
	v := r.ledger[want.scope]
	if v == nil {
		v = &validators{first: tag, bodies: map[string]string{}, tags: map[string]string{}}
		r.ledger[want.scope] = v
	}
	if b, ok := v.bodies[tag]; ok && b != body {
		return fmt.Errorf("ETag %s names two bodies of %s:\n %.300q\n %.300q", tag, want.scope, b, body)
	}
	if t, ok := v.tags[body]; ok && t != tag {
		return fmt.Errorf("one body of %s under two ETags, %s and %s", want.scope, t, tag)
	}
	v.bodies[tag], v.tags[body] = body, tag
	r.last.scope, r.last.tag = want.scope, tag
	return nil
}

// burstTargets are the URLs a burst spreads over: fills, hits and 404s,
// every one behind the valve, and two consecutive epochs' maps, which fill
// the JSON fragment slots the epochs share.
var burstTargets = []string{"/v1/top", "/v1/as/3000", "/v1/epochs", "/v1/map/0", "/v1/map/1", "/v1/latency/top", "/v1/as/9999", "/v1/diff/0/1"}

// burst asks for each of its URLs once, so a disagreement on them fails the
// same way on every run, then fires n GETs at once through an admission
// valve with two slots and one queue place. Each response is the model's
// answer or a 503 with Retry-After; the valve counts every request once, as
// admitted or shed; and once the burst is over the in-flight gauge reads 0.
func (r *runner) burst(n int) error {
	for _, target := range burstTargets {
		if err := r.check(r.m.answer(http.MethodGet, target), serve(r.h, http.MethodGet, target, "", false), ""); err != nil {
			return fmt.Errorf("GET %s: %w", target, err)
		}
	}
	h := mapstore.NewAdmission(mapstore.AdmissionConfig{MaxInFlight: 2, MaxQueue: 1}).Wrap(r.h)
	admitted0, shed0 := metric("itm_admission_admitted_total"), metric("itm_admission_shed_total")
	recs := make([]*httptest.ResponseRecorder, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			recs[i] = serve(h, http.MethodGet, burstTargets[i%len(burstTargets)], "", false)
		}()
	}
	close(start)
	wg.Wait()
	admitted, shed := 0, 0
	for i, rec := range recs {
		target := burstTargets[i%len(burstTargets)]
		if rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != "" {
			shed++
			continue
		}
		admitted++
		if err := r.check(r.m.answer(http.MethodGet, target), rec, ""); err != nil {
			return fmt.Errorf("GET %s: %w", target, err)
		}
	}
	if a, s := metric("itm_admission_admitted_total")-admitted0, metric("itm_admission_shed_total")-shed0; int(a) != admitted || int(s) != shed {
		return fmt.Errorf("the valve counted %v admitted and %v shed of %d; the responses say %d and %d", a, s, n, admitted, shed)
	}
	if g := metric("itm_admission_inflight"); g != 0 {
		return fmt.Errorf("idle valve reports itm_admission_inflight %v", g)
	}
	return nil
}

func metric(key string) float64 {
	for _, kv := range history.Flatten(obs.Metrics()) {
		if kv.Key == key {
			return kv.Value
		}
	}
	return 0
}

// --- documents ---------------------------------------------------------------

// baseDoc is day zero: every section, ASNs and prefixes whose string order
// is not their numeric order, activity whose float sums depend on the order
// they are taken in and two ASes tied on it, an AS known by a mapping alone
// and a mapping no server answers.
func baseDoc() *core.MapDocument {
	doc, err := core.ImportDocument(strings.NewReader(`{"version": 1,
		"active_prefixes": ["1.0.0.0/24", "1.0.2.0/24", "1.0.10.0/24", "9.9.9.0/24", "203.0.113.0/24"],
		"prefix_hit_rates": {"1.0.0.0/24": 0.031, "1.0.2.0/24": 0.07, "1.0.10.0/24": 0.5},
		"as_activity": {"700": 0.1, "3000": 123.5, "3001": 7.3, "3002": 7.3, "64500": 1e-3, "64501": 33.3},
		"sources": {"700": "root-logs", "3000": "cache-probe", "64500": "cache-probe+root-logs"},
		"servers": [
			{"prefix": "9.9.9.0/24", "host_as": 64500, "owner_as": 64510, "org": "HyperGiant", "city": "Paris", "country": "FR"},
			{"prefix": "9.9.8.0/24", "host_as": 64501, "owner_as": 64510, "org": "HyperGiant", "city": "Lagos", "country": "NG"}],
		"mappings": [
			{"domain": "video.example", "client_as": 3000, "serving_prefix": "9.9.9.0/24"},
			{"domain": "video.example", "client_as": 3001, "serving_prefix": "9.9.8.0/24"},
			{"domain": "cdn.example", "client_as": 3000, "serving_prefix": "9.9.9.0/24"},
			{"domain": "cdn.example", "client_as": 3005, "serving_prefix": "1.0.0.0/24"}]}`))
	if err != nil {
		panic(err)
	}
	return doc
}

// baseMesh has a complete, a holed and an all-lost pair, and two pairs tied
// on mean RTT.
func baseMesh() *core.MeshDocument {
	return &core.MeshDocument{Version: 1, Agents: 8, Rounds: 2, Profile: "lossy", Pairs: []core.MeshPairDocument{
		{Lo: 700, Hi: 3000, Path: []uint32{700, 3000}, Complete: true, Probes: 3, MinRTT: 40, MeanRTT: 41, MaxRTT: 44, Confidence: 1},
		{Lo: 3000, Hi: 3001, Path: []uint32{3000, 10, 3001}, Complete: true, Probes: 8, Lost: 1, MinRTT: 12.5, MeanRTT: 14.25, MaxRTT: 19, Confidence: 0.875},
		{Lo: 3000, Hi: 3005, Path: []uint32{3000, 0, 3005}, Probes: 4, Lost: 2, MinRTT: 40, MeanRTT: 41, MaxRTT: 42, Confidence: 0.25},
		{Lo: 3001, Hi: 3007, Probes: 4, Lost: 4},
	}}
}

var docASNs = []topology.ASN{700, 3000, 3001, 3002, 64500, 64501, 64502}

// edgeFloats sit on both sides of the cut-offs where JSON numbers switch to
// exponent form (1e-6 and 1e21) and where whole numbers stop being written
// as integers (1e15), with both zeros and the 1 most hit rates hold.
// edgeStrings are what JSON escapes or replaces, one a string, and every
// org, city and domain a day adds ends in one: the plain spelling is day
// zero's. A served map then shows each.
var (
	edgeFloats  = []float64{1e-7, 9.99e-7, 1e-6, 1e21, 5e-324, 1e20, 0, math.Copysign(0, -1), 1, 1e15, 1 << 53}
	edgeStrings = []string{"<", ">", "&", `"`, `\`, "\t", "é", "\u2028", "\xff"}
)

// nextDoc is the next day of prev: each section changes with some
// probability, so consecutive epochs share anything from no section to all.
func nextDoc(prev *core.MapDocument, rng *randx.Source) *core.MapDocument {
	d := cloneDoc(prev)
	asn := func() topology.ASN { return docASNs[rng.Intn(len(docASNs))] }
	value := func() float64 {
		if rng.Bool(0.3) {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return rng.Float64()
	}
	text := func(s string) string { return s + edgeStrings[rng.Intn(len(edgeStrings))] }
	active := func() topology.PrefixID {
		if len(d.ActivePrefixes) == 0 { // a respelled epoch may have none
			return 1 << 16
		}
		return d.ActivePrefixes[rng.Intn(len(d.ActivePrefixes))]
	}
	if rng.Bool(0.35) {
		if p := topology.PrefixID(10<<16 | rng.Intn(256)); !slices.Contains(d.ActivePrefixes, p) {
			d.ActivePrefixes = append(d.ActivePrefixes, p)
		}
	}
	if rng.Bool(0.2) && len(d.ActivePrefixes) > 1 {
		i := rng.Intn(len(d.ActivePrefixes))
		d.ActivePrefixes = slices.Delete(d.ActivePrefixes, i, i+1)
	}
	if rng.Bool(0.3) {
		d.PrefixHitRates[active()] = value()
	}
	if rng.Bool(0.4) {
		d.ASActivity[asn()] = rng.Float64() * 1000
	}
	if rng.Bool(0.15) {
		delete(d.ASActivity, asn())
	}
	if rng.Bool(0.3) {
		d.Sources[asn()] = core.ActivitySource(rng.Intn(core.ActivitySources))
	}
	// Two draws once changed the grades and confidences codec version 1
	// carried. They stay so that every seed and committed repro draws the
	// days it always has: a grade is drawn and dropped, and a confidence
	// lands in the activity, so edge floats reach the writer as often.
	if rng.Bool(0.25) {
		active()
		rng.Intn(4)
	}
	if rng.Bool(0.25) {
		d.ASActivity[asn()] = value()
	}
	if rng.Bool(0.25) {
		d.Servers = append(d.Servers, core.ServerDocument{Prefix: active(), HostAS: uint32(asn()), OwnerAS: 64510, Org: text("Org"), City: text("Oslo"), Country: "NO"})
	}
	if rng.Bool(0.25) {
		m := core.MappingDocument{Domain: text(fmt.Sprintf("svc-%d.example", rng.Intn(4))), ClientAS: uint32(asn()), Serving: active()}
		if !slices.ContainsFunc(d.Mappings, func(o core.MappingDocument) bool { return o.Domain == m.Domain && o.ClientAS == m.ClientAS }) {
			d.Mappings = append(d.Mappings, m)
		}
	}
	return d
}

// nextMesh is prev re-measured: often unchanged, so the store shares it.
func nextMesh(prev *core.MeshDocument, rng *randx.Source) *core.MeshDocument {
	m := cloneMesh(prev)
	if rng.Bool(0.45) {
		p := &m.Pairs[rng.Intn(len(m.Pairs))]
		p.Probes++
		p.MeanRTT += rng.Float64()
	}
	if rng.Bool(0.15) {
		p := core.MeshPairDocument{Lo: 3001, Hi: 3005, Path: []uint32{3001, 3005}, Complete: true, Probes: 2, MinRTT: 9, MeanRTT: 9.5, MaxRTT: 10, Confidence: 1}
		if !slices.ContainsFunc(m.Pairs, func(o core.MeshPairDocument) bool { return o.Key() == p.Key() }) {
			m.Pairs = append(m.Pairs, p)
		}
	}
	return m
}

// next builds what an append op hands the store, from the latest
// acknowledged epoch (day zero before the first); a JSON spelling the import
// refuses comes back as its error.
func (r *runner) next(kind string, rng *randx.Source) (*core.MapDocument, *core.MeshDocument, error) {
	doc, mesh, lastMesh := baseDoc(), (*core.MeshDocument)(nil), baseMesh()
	if n := len(r.m.epochs); n > 0 {
		doc, mesh = r.m.epochs[n-1].doc, r.m.epochs[n-1].mesh
	}
	for _, e := range r.m.epochs {
		if e.mesh != nil {
			lastMesh = e.mesh
		}
	}
	switch kind {
	case "same":
		return cloneDoc(doc), cloneMesh(mesh), nil
	case "map":
		return nextDoc(doc, rng), nil, nil
	case "mesh":
		return nextDoc(doc, rng), nextMesh(lastMesh, rng), nil
	case "respell":
		return throughJSON(doc, respellings[rng.Intn(len(respellings))])
	}
	i := rng.Intn(len(malformed) + len(unencodable))
	if i < len(malformed) {
		return throughJSON(doc, malformed[i])
	}
	d, m := cloneDoc(doc), cloneMesh(lastMesh)
	unencodable[i-len(malformed)](d, m)
	return d, m, nil
}

// throughJSON lists field last in doc's JSON, where it replaces the field of
// its name, and imports the result, as itm-serve imports a snapshot.
func throughJSON(doc *core.MapDocument, field string) (*core.MapDocument, *core.MeshDocument, error) {
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	d, err := core.ImportDocument(bytes.NewReader(slices.Concat(data[:len(data)-1], []byte(","+field+"}"))))
	return d, nil, err
}

// respellings are fields the import must read as the document they name:
// leading zeros on a key or a prefix, alone or beside the canonical spelling
// (the one listed last wins), and empty lists as [], which the store must
// serve as the null the codec decodes them to.
var respellings = []string{
	`"as_activity":{"0700":1,"3000":2,"03000":3}`,
	`"prefix_hit_rates":{"01.0.0.0/24":0.5}`,
	`"active_prefixes":["1.0.0.0/24","09.9.9.0/24"]`,
	`"mappings":[{"domain":"a.example","client_as":700,"serving_prefix":"009.9.9.0/24"}]`,
	`"active_prefixes":[]`,
	`"servers":[],"mappings":[]`,
}

// malformed are fields that spoil a document: the import refuses a malformed
// key or label, the append a prefix listed twice.
var malformed = []string{
	`"as_activity":{"AS64500":1}`,
	`"active_prefixes":["10.0.0.0/8"]`,
	`"sources":{"3000":"hearsay"}`,
	`"mappings":[{"domain":"x.example","client_as":1,"serving_prefix":"nowhere"}]`,
	`"active_prefixes":["01.0.0.0/24","1.0.0.0/24"]`,
}

// unencodable spoil a document or its mesh with a value the wire cannot
// carry: a non-finite float or a prefix ID wider than 24 bits.
var unencodable = []func(d *core.MapDocument, m *core.MeshDocument){
	func(d *core.MapDocument, _ *core.MeshDocument) { d.ASActivity[3000] = math.NaN() },
	func(d *core.MapDocument, _ *core.MeshDocument) { d.PrefixHitRates[1<<16] = math.Inf(1) },
	func(_ *core.MapDocument, m *core.MeshDocument) { m.Pairs[0].MinRTT = math.Inf(-1) },
	func(d *core.MapDocument, _ *core.MeshDocument) {
		d.ActivePrefixes = append(d.ActivePrefixes, topology.MaxPrefixID+1)
	},
}

// cloneDoc deep-copies a document, whatever values it holds.
func cloneDoc(d *core.MapDocument) *core.MapDocument {
	c := *d
	c.ActivePrefixes, c.Servers, c.Mappings = slices.Clone(d.ActivePrefixes), slices.Clone(d.Servers), slices.Clone(d.Mappings)
	c.PrefixHitRates, c.ASActivity, c.Sources = maps.Clone(d.PrefixHitRates), maps.Clone(d.ASActivity), maps.Clone(d.Sources)
	return &c
}

func cloneMesh(m *core.MeshDocument) *core.MeshDocument {
	if m == nil {
		return nil
	}
	c := *m
	c.Pairs = slices.Clone(m.Pairs)
	return &c
}

// --- sequences ---------------------------------------------------------------

// urlShapes are the request targets sequences draw from, one per route and
// an unknown one. {e}, {a} and {f} stand for an epoch ID, an ASN and a
// history family; each query parameter is drawn too, or left out.
var urlShapes = []string{
	"/healthz", "/v1/epochs", "/v1/map/{e}?format", "/v1/top?epoch&k", "/v1/as/{a}?epoch&k",
	"/v1/diff/{e}/{e}?min_shift", "/v1/path/{a}/{a}?epoch",
	"/v1/latency/{a}/{a}?epoch", "/v1/latency/top?epoch&k", "/v1/obs/history",
	"/v1/obs/history/{f}", "/v1/slo", "/v1/nope",
}

// urlValues are what each placeholder and parameter is drawn from: valid,
// malformed and out of range, "" leaving a parameter out, so every order in
// which a route's checks can refuse comes up.
var urlValues = map[string][]string{
	"{e}":       {"0", "1", "2", "3", "5", "9", "-1", "x"},
	"{a}":       {"3000", "3001", "3005", "3007", "700", "64500", "64501", "9999", "0", "4294967295", "x", "-1", "4294967296"},
	"{f}":       {historyFamily, "itm_nope"},
	"epoch":     {"", "", "", "0", "1", "3", "9", "-1", "x"},
	"k":         {"", "", "0", "1", "3", "1000", "-2", "x"},
	"format":    {"", "json", "binary", "binary", "xml"},
	"min_shift": {"", "", "0", "1e-3", "0.5", "x", "NaN"},
}

func genURL(rng *randx.Source) string {
	pick := func(key string) string { return urlValues[key][rng.Intn(len(urlValues[key]))] }
	path, params, _ := strings.Cut(urlShapes[rng.Intn(len(urlShapes))], "?")
	segs := strings.Split(path, "/")
	for i, seg := range segs {
		if strings.HasPrefix(seg, "{") {
			segs[i] = pick(seg)
		}
	}
	target, sep := strings.Join(segs, "/"), "?"
	for _, name := range strings.FieldsFunc(params, func(c rune) bool { return c == '&' }) {
		if v := pick(name); v != "" {
			target, sep = target+sep+name+"="+v, "&"
		}
	}
	return target
}

// genOps draws a sequence of n ops.
func genOps(seed int64, n int) []string {
	rng := randx.New(seed)
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	var ops, targets []string
	for len(ops) < n {
		switch x := rng.Float64(); {
		case x < 0.05:
			crash := 0
			if rng.Bool(0.5) {
				crash = 40 + rng.Intn(4000)
			}
			ops = append(ops, fmt.Sprintf("boot %d", crash))
		case x < 0.27:
			if kind := pick("map", "map", "mesh", "mesh", "mesh", "same", "respell", "bad"); kind == "same" {
				ops = append(ops, kind)
			} else {
				ops = append(ops, fmt.Sprintf("%s %d", kind, rng.Intn(1<<16)))
			}
		case x < 0.29:
			ops = append(ops, fmt.Sprintf("burst %d", 4+rng.Intn(12)))
		default:
			target := genURL(rng)
			if len(targets) > 0 && rng.Bool(0.5) {
				target = targets[rng.Intn(len(targets))]
			}
			targets = append(targets, target)
			if rng.Bool(0.04) {
				ops = append(ops, "post "+target)
				continue
			}
			op := "get " + target
			if rng.Bool(0.55) {
				op += " " + pick("cur", "cur", "stale", "foreign", "foreign", "list", "star", "star")
			}
			if rng.Bool(0.2) {
				op += " tp"
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// shrink deletes ops from a failing sequence while it still fails: halves
// first, then ever smaller runs, down to single ops.
func shrink(ops []string) []string {
	for chunk := len(ops) / 2; chunk > 0; {
		removed := false
		for i := 0; i+chunk <= len(ops); {
			if cand := slices.Concat(ops[:i], ops[i+chunk:]); runOps(cand, nil) != nil {
				ops, removed = cand, true
			} else {
				i += chunk
			}
		}
		if !removed {
			chunk /= 2
		}
	}
	return ops
}

// TestModelSequences drives the stack and the model through seeded
// sequences and shrinks the first one they disagree on to a repro.
func TestModelSequences(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		ops := genOps(seed, 60)
		if err := runOps(ops, seen); err != nil {
			small := shrink(ops)
			t.Fatalf("seed %d: %v\nshrunk to %d ops (commit them under testdata/model/ to replay on every run):\n%s\nwhich fail with: %v",
				seed, err, len(small), strings.Join(small, "\n"), runOps(small, nil))
		}
	}
	t.Logf("outcomes: %v", seen)
	// The sequences are only worth their length if they reach every outcome.
	for _, k := range []string{"200", "304", "400", "404", "405", "refused", "crash"} {
		if seen[k] == 0 {
			t.Errorf("no sequence reached %q: %v", k, seen)
		}
	}
}

// TestModelRepros replays the committed repros, one per bug the model has
// caught, so none of them comes back.
func TestModelRepros(t *testing.T) {
	files, err := filepath.Glob("testdata/model/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no repros under testdata/model (%v)", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var ops []string
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				ops = append(ops, line)
			}
		}
		if err := runOps(ops, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
