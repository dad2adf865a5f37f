// Package history is the deterministic telemetry history store: an
// epoch-sampled ring that snapshots every stable metric family at serial
// campaign points — each mapstore append, each vantage mesh campaign, each
// cacheprobe sweep — so the serving stack can answer "what did cache
// hit-rate look like over the last 50 epochs?" instead of only "what is it
// now".
//
// Determinism is inherited, not re-derived: samples are taken only at
// serial points (under the store's append lock, or on the post-merge path
// of a campaign), the flattened values come from the registry's stable
// families via the deterministically-ordered Visit, and the ring's
// tail-drop eviction is a pure function of the sample sequence. With a
// fixed seed, the full history body — samples, generation, ETag — is
// byte-identical across runs and worker counts. No wall clocks: sample
// timestamps are the campaign's simulated times (DESIGN.md §15).
package history

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// DefaultCap bounds how many samples the default ring retains. Past it the
// oldest samples age out (counted, never silently), keeping the serving
// surface and its ETag churn bounded for day-scale campaigns.
const DefaultCap = 512

// KV is one flattened metric series: the Prometheus-style series key
// (name{k="v",...}) and its reduced value (counter count, gauge value,
// histogram observation count).
type KV struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// Sample is one point-in-time capture of the registry's stable families.
type Sample struct {
	Index  int     `json:"index"`  // global sample number, never reused
	Source string  `json:"source"` // capture point: epoch | mesh | sweep
	Label  string  `json:"label"`  // e.g. "epoch-3", "sweep-discover"
	AtH    float64 `json:"at_h"`   // simulated capture time, hours
	Values []KV    `json:"values"`
}

// Snapshot is an immutable view of the ring: the retained samples (oldest
// first) plus the bookkeeping the serving layer needs for caching.
type Snapshot struct {
	Gen     int       // samples ever recorded
	Dropped int       // samples aged out of the ring
	Samples []*Sample // oldest first; samples are immutable once recorded

	// etag is the strong validator over the retained content, hashed when
	// first read: a campaign records many snapshots that nothing reads.
	etagOnce sync.Once
	etag     string
}

// ETag returns the snapshot's strong validator over the retained content.
func (s *Snapshot) ETag() string {
	s.etagOnce.Do(func() { s.etag = etagFor(s.Gen, s.Samples) })
	return s.etag
}

// Ring is the bounded sample store. Records serialize on the mutex;
// readers take lock-free snapshots.
type Ring struct {
	capacity int

	mu sync.Mutex
	//itm:guardedby mu
	samples []*Sample
	//itm:guardedby mu
	gen int
	//itm:guardedby mu
	dropped int

	snap atomic.Pointer[Snapshot]
}

// NewRing returns an empty ring retaining up to capacity samples
// (DefaultCap when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	r := &Ring{capacity: capacity}
	r.snap.Store(&Snapshot{})
	return r
}

// Record flattens reg's stable families into a new sample and appends it,
// aging out the oldest sample when the ring is full. Call only from serial
// points — the capture is atomic with respect to other Records, but a
// sample taken mid-parallel-stage would see a scheduling-dependent partial
// state and break byte-identity.
func (r *Ring) Record(source, label string, at simtime.Time, reg *obs.Registry) *Sample {
	vals := Flatten(reg)
	r.mu.Lock()
	s := &Sample{Index: r.gen, Source: source, Label: label, AtH: float64(at), Values: vals}
	r.gen++
	evicted := false
	if len(r.samples) >= r.capacity {
		n := copy(r.samples, r.samples[1:])
		r.samples = r.samples[:n]
		r.dropped++
		evicted = true
	}
	r.samples = append(r.samples, s)
	r.snap.Store(&Snapshot{Gen: r.gen, Dropped: r.dropped,
		Samples: append([]*Sample(nil), r.samples...)})
	r.mu.Unlock()
	// Counted after the capture: sample N carries the totals as of N-1, so
	// the sample never depends on its own bookkeeping.
	samplesTotal.In(reg, source).Inc()
	if evicted {
		evictedTotal.In(reg).Inc()
	}
	return s
}

// Snapshot returns the current immutable view.
func (r *Ring) Snapshot() *Snapshot { return r.snap.Load() }

// Flatten reduces reg's stable families to sorted (series key, value)
// pairs — the sample payload, and the SLO engine's "now" point.
func Flatten(reg *obs.Registry) []KV {
	var out []KV
	reg.Visit(func(name string, labels []obs.Label, value float64) {
		out = append(out, KV{Key: SeriesKey(name, labels), Value: value})
	})
	return out
}

// SeriesKey renders the canonical flattened key: name{k="v",...}, label
// keys in the registry's sorted order, or the bare name when unlabeled.
func SeriesKey(name string, labels []obs.Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// KeyFamily extracts the family name from a flattened series key.
func KeyFamily(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// etagFor derives the ring's strong validator: generation plus an FNV-1a
// fingerprint of the retained content. Content is deterministic, so the
// tag is too.
func etagFor(gen int, samples []*Sample) string {
	h := fnv.New64a()
	var scratch [8]byte
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			scratch[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(scratch[:])
	}
	for _, s := range samples {
		u64(uint64(s.Index))
		u64(math.Float64bits(s.AtH))
		_, _ = h.Write([]byte(s.Source))
		_, _ = h.Write([]byte{0xff})
		_, _ = h.Write([]byte(s.Label))
		_, _ = h.Write([]byte{0xff})
		for _, kv := range s.Values {
			_, _ = h.Write([]byte(kv.Key))
			u64(math.Float64bits(kv.Value))
		}
	}
	return `"itm-h` + strconv.Itoa(gen) + `-` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// listingBody is the GET /v1/obs/history response shape.
type listingBody struct {
	ETag       string    `json:"etag"`
	Generation int       `json:"generation"`
	Dropped    int       `json:"dropped"`
	Samples    []*Sample `json:"samples"`
}

// familyBody is the GET /v1/obs/history/{family} response shape.
type familyBody struct {
	ETag       string    `json:"etag"`
	Generation int       `json:"generation"`
	Family     string    `json:"family"`
	Samples    []*Sample `json:"samples"`
}

// MarshalBody renders the full history listing as indented JSON with a
// trailing newline (the serving layer's cacheable-body convention).
func (s *Snapshot) MarshalBody() ([]byte, error) {
	samples := s.Samples
	if samples == nil {
		samples = []*Sample{}
	}
	b, err := json.MarshalIndent(listingBody{
		ETag: s.ETag(), Generation: s.Gen, Dropped: s.Dropped, Samples: samples}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// HasFamily reports whether family appears in any retained sample — whether
// the per-family view has anything to show (a 404 to the serving layer when
// not).
func (s *Snapshot) HasFamily(family string) bool {
	for _, sm := range s.Samples {
		for _, kv := range sm.Values {
			if KeyFamily(kv.Key) == family {
				return true
			}
		}
	}
	return false
}

// MarshalFamilyBody renders the per-family view: every sample, with values
// filtered to the requested family's series. ok is false when the family
// appears in no retained sample (see HasFamily).
func (s *Snapshot) MarshalFamilyBody(family string) ([]byte, bool, error) {
	if !s.HasFamily(family) {
		return nil, false, nil
	}
	filtered := make([]*Sample, 0, len(s.Samples))
	for _, sm := range s.Samples {
		vals := []KV{}
		for _, kv := range sm.Values {
			if KeyFamily(kv.Key) == family {
				vals = append(vals, kv)
			}
		}
		filtered = append(filtered, &Sample{Index: sm.Index, Source: sm.Source,
			Label: sm.Label, AtH: sm.AtH, Values: vals})
	}
	b, err := json.MarshalIndent(familyBody{
		ETag: s.FamilyETag(family), Generation: s.Gen, Family: family, Samples: filtered}, "", "  ")
	if err != nil {
		return nil, false, err
	}
	return append(b, '\n'), true, nil
}

// FamilyETag derives the per-family route's validator from the ring tag
// plus the family name — distinct families never share a validator.
func (s *Snapshot) FamilyETag(family string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s.ETag()))
	_, _ = h.Write([]byte{0xff})
	_, _ = h.Write([]byte(family))
	return `"itm-hf` + strconv.Itoa(s.Gen) + `-` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// The history bookkeeping families.
var (
	samplesTotal = obs.NewCounter("itm_history_samples_total",
		"Telemetry history samples recorded, by capture source.", "source")
	evictedTotal = obs.NewCounter("itm_history_evicted_total",
		"Telemetry history samples aged out of the ring.").DeclaredAtZero()
)

// DeclareMetrics registers the history bookkeeping families up front.
func DeclareMetrics() { obs.Declare(samplesTotal, evictedTotal) }

var def atomic.Pointer[Ring]

func init() { def.Store(NewRing(DefaultCap)) }

// Default returns the process-wide history ring campaign code records into.
func Default() *Ring { return def.Load() }

// Swap replaces the default ring and returns the previous one —
// byte-identity tests swap in a fresh ring per run, mirroring obs.Swap.
func Swap(r *Ring) *Ring { return def.Swap(r) }

// Observe records a sample of the default registry into the default ring.
func Observe(source, label string, at simtime.Time) *Sample {
	return Default().Record(source, label, at, obs.Metrics())
}
