// Command itm-serve exposes an epoch-versioned Internet traffic map over
// HTTP. It either runs a multi-day measurement campaign on a simulated
// Internet (one epoch per day) or loads a previously exported map snapshot,
// then serves the query API until interrupted:
//
//	GET /healthz                  liveness + epoch count
//	GET /v1/epochs                epoch metadata
//	GET /v1/map/{epoch}           map document (?format=binary → ITMB)
//	GET /v1/top?epoch=&k=         top-K ASes by activity
//	GET /v1/as/{asn}?epoch=&k=    per-AS view + activity series
//	GET /v1/diff/{a}/{b}          epoch-to-epoch diff
//	GET /v1/path/{a}/{b}?epoch=   user↔user AS path (-mesh-agents > 0)
//	GET /v1/latency/{a}/{b}?epoch= user↔user RTT summary (-mesh-agents > 0)
//	GET /v1/latency/top?epoch=&k= worst mesh pairs by mean RTT
//	GET /v1/obs/history           telemetry history ring (per-epoch samples)
//	GET /v1/obs/history/{family}  one metric family's series over the ring
//	GET /v1/slo                   SLO burn-rate report (see itm-top)
//	GET /metrics                  Prometheus text exposition (0.0.4)
//	GET /v1/traces                recorded trace names
//	GET /v1/trace/{campaign}      one campaign's span tree
//
// With -wal DIR every ingested epoch is journaled (fsync-on-append) to
// DIR/journal.itwl before it is served, and a restart replays the journal
// instead of rebuilding the world — including after a SIGKILL mid-append,
// whose torn record is truncated on recovery. A DIR holding the
// snapshot.itwl an older binary compacted into, or a journal in an older
// codec version, is refused: the server exits without serving. All
// non-operator routes pass through an admission valve (bounded concurrency
// + bounded wait queue) that sheds with 503 + Retry-After when saturated;
// SIGTERM drains in-flight requests before the WAL is closed.
//
// Usage:
//
//	itm-serve [-addr :8411] [-scale tiny|small|default] [-seed N]
//	          [-epochs N] [-snapshot map.json] [-pprof]
//	          [-wal DIR] [-max-inflight N] [-max-queue N]
//	          [-mesh-agents N] [-mesh-profile NAME]
//
// With -mesh-agents > 0 each simulated day also runs a vantage-fleet mesh
// campaign (agents seeded into eyeball ASes probing each other) and the
// epoch carries user↔user path/latency sections served at /v1/path and
// /v1/latency. With -wal they are journaled with the epoch, so a recovered
// store serves them byte-identically too.
//
// The campaign is experiments.BuildEpochStore — the one campaign→store path,
// also behind itm-bench and E25 — run into a store whose WAL is already
// attached; -mesh-agents 0 is that builder's "no mesh", and -scale is
// whatever world.ForScale accepts. Every byte served is measured: the
// simulator's ground-truth traffic matrix only validates maps (in
// itm-experiments), and the server never builds it. Every sweep of the
// boot fans out over GOMAXPROCS, and the store it fills is byte-identical
// at any CPU count. (The server still reaches the campaign through
// internal/experiments because benchmark/_tracer mirrors this boot by those
// names; ROADMAP item 7b retires the mirror first.)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"itmap/internal/core"
	"itmap/internal/experiments"
	"itmap/internal/faults"
	"itmap/internal/mapstore"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/world"
)

// meshRounds is how many rounds each epoch's mesh campaign runs.
const meshRounds = 2

var epochsLoaded = obs.NewGauge("itm_serve_epochs_loaded", "Epochs available in the serving store.")

// options carries every flag; one struct keeps run()'s signature sane.
type options struct {
	addr        string
	scale       string
	seed        int64
	epochs      int
	snapshot    string
	pprofOn     bool
	walDir      string
	maxInflight int
	maxQueue    int
	meshAgents  int
	meshProfile string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8411", "listen address")
	flag.StringVar(&o.scale, "scale", "tiny", "world scale: tiny, small, or default")
	flag.Int64Var(&o.seed, "seed", 42, "world seed")
	flag.IntVar(&o.epochs, "epochs", 3, "simulated days to measure (one epoch per day)")
	flag.StringVar(&o.snapshot, "snapshot", "", "serve this exported map JSON instead of simulating")
	flag.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.StringVar(&o.walDir, "wal", "", "journal epochs under this directory; replay it on boot instead of rebuilding")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "admission: concurrent request slots (0 = default)")
	flag.IntVar(&o.maxQueue, "max-queue", -1, "admission: wait-queue capacity (-1 = default, 0 = shed immediately when slots are full)")
	flag.IntVar(&o.meshAgents, "mesh-agents", 0, "vantage fleet size for per-epoch mesh campaigns (0 = no mesh)")
	flag.StringVar(&o.meshProfile, "mesh-profile", "none", "fault preset the mesh fleet probes under")
	flag.Parse()

	obs.Events().SetOutput(os.Stderr)
	if err := run(o); err != nil {
		obs.Event(obs.Error, "serve.exit", "reason", err.Error())
		os.Exit(1)
	}
}

// fillStore populates an empty store — from a snapshot export or by running
// the measurement campaign. The store may already have a WAL attached, in
// which case every append lands in the journal before it is served.
func fillStore(st *mapstore.Store, o options) error {
	if o.snapshot != "" {
		f, err := os.Open(o.snapshot)
		if err != nil {
			return err
		}
		defer f.Close()
		doc, err := core.ImportDocument(f)
		if err != nil {
			return fmt.Errorf("%s: %w", o.snapshot, err)
		}
		if _, err := st.Append(0, doc); err != nil {
			return fmt.Errorf("%s: %w", o.snapshot, err)
		}
		return nil
	}

	cfg, err := world.ForScale(o.scale, o.seed)
	if err != nil {
		return err
	}
	prof, ok := faults.ByName(o.meshProfile)
	if !ok {
		return fmt.Errorf("unknown mesh profile %q", o.meshProfile)
	}
	obs.Event(obs.Info, "serve.building", "scale", o.scale, "seed", o.seed, "epochs", o.epochs)
	if o.meshAgents > 0 {
		obs.Event(obs.Info, "serve.mesh", "agents", o.meshAgents, "rounds", meshRounds, "profile", o.meshProfile)
	}
	return experiments.BuildEpochStore(st, world.Build(cfg), o.epochs,
		experiments.MeshSpec{Agents: o.meshAgents, Rounds: meshRounds, Profile: prof})
}

// openStore assembles the serving store. With -wal and a non-empty journal
// the world rebuild is skipped entirely: the store is replayed from disk,
// torn tail repaired, and the WAL stays attached for future appends.
func openStore(o options) (*mapstore.Store, *wal.WAL, error) {
	if o.walDir == "" {
		st := mapstore.NewStore()
		return st, nil, fillStore(st, o)
	}
	w, rec, err := wal.Open(wal.Options{Dir: o.walDir})
	if err != nil {
		return nil, nil, err
	}
	if len(rec.Records) > 0 {
		st, err := mapstore.RecoverStore(w, rec)
		if err != nil {
			_ = w.Close() // nothing was appended; the recovery error is the one to report
			return nil, nil, err
		}
		obs.Event(obs.Info, "serve.recovered", "wal", o.walDir,
			"epochs", len(rec.Records), "truncated_tail_bytes", rec.TruncatedBytes)
		return st, w, nil
	}
	st := mapstore.NewStore()
	st.AttachWAL(w)
	if err := fillStore(st, o); err != nil {
		return nil, nil, err
	}
	return st, w, nil
}

// newMux layers the operational endpoints over the store's query API.
func newMux(st *mapstore.Store, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", mapstore.NewHandler(st))
	mux.Handle("GET /metrics", obs.MetricsHandler(obs.Metrics()))
	mux.Handle("GET /v1/traces", obs.InstrumentHandler("GET /v1/traces",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\n  \"traces\": [")
			for i, n := range obs.Tracing().Names() {
				if i > 0 {
					fmt.Fprint(w, ", ")
				}
				fmt.Fprintf(w, "%q", n)
			}
			fmt.Fprint(w, "]\n}\n")
		})))
	mux.Handle("GET /v1/trace/{campaign}", obs.InstrumentHandler("GET /v1/trace/{campaign}",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			name := r.PathValue("campaign")
			tr, ok := obs.Tracing().Lookup(name)
			if !ok {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprintf(w, "{\"error\": %q}\n", "no trace "+name)
				return
			}
			b, err := tr.ExportJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(b)
		})))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func run(o options) error {
	faults.RegisterMetrics()
	st, w, err := openStore(o)
	if err != nil {
		return err
	}
	epochsLoaded.Set(float64(st.Len()))
	for _, info := range st.Infos() {
		obs.Event(obs.Info, "serve.epoch", "id", info.ID, "at_h", float64(info.At),
			"prefixes", info.ActivePrefixes, "ases", info.ASes, "servers", info.Servers,
			"mappings", info.Mappings, "encoded_bytes", info.EncodedBytes)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	adm := mapstore.NewAdmission(mapstore.AdmissionConfig{
		MaxInFlight: o.maxInflight,
		MaxQueue:    o.maxQueue,
	})
	srv := &http.Server{Handler: adm.Wrap(newMux(st, o.pprofOn))}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	obs.Event(obs.Info, "serve.listening", "addr", ln.Addr().String(),
		"epochs", st.Len(), "wal", o.walDir != "", "pprof", o.pprofOn)

	reason := "signal"
	select {
	case err := <-errc:
		obs.Event(obs.Error, "serve.shutdown", "reason", err.Error())
		return err
	case <-ctx.Done():
	}
	stop()
	obs.Event(obs.Info, "serve.shutdown", "reason", reason)
	// Graceful drain, in order: stop admitting (queued waiters shed, new
	// arrivals 503), let in-flight requests finish, then close the journal —
	// which therefore always ends on a record boundary.
	adm.BeginDrain()
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	if w != nil {
		if err := w.Close(); err != nil {
			return fmt.Errorf("closing wal: %w", err)
		}
		obs.Event(obs.Info, "serve.wal_closed", "dir", o.walDir)
	}
	return nil
}
