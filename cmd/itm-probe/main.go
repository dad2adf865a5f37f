// Command itm-probe demonstrates the cache-probing technique at the packet
// level: it starts a UDP front end of the simulated public resolver's PoP 0
// on a loopback port, then probes it with real RFC 1035 + EDNS0 Client
// Subnet packets — the same bytes a prober aims at 8.8.8.8 — and prints
// which prefixes show client activity.
//
// Usage:
//
//	itm-probe [-scale tiny|small|default] [-seed N] [-domain D] [-n N]
//	          [-faults none|calm|lossy|hostile] [-budget B]
package main

import (
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sort"
	"time"

	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/obs"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func main() {
	scale := flag.String("scale", "tiny", "world scale: tiny, small, or default")
	seed := flag.Int64("seed", 1, "world seed")
	domain := flag.String("domain", "", "domain to probe (default: most popular ECS service)")
	n := flag.Int("n", 12, "how many prefixes to probe")
	profile := flag.String("faults", "none", "fault profile on the resolver: none, calm, lossy, hostile")
	budget := flag.Int("budget", 4, "attempts per probe before giving up")
	metricsOut := flag.String("metrics-out", "", "write the stable metrics dump to this file on exit")
	traceOut := flag.String("trace-out", "", "write the span-trace export to this file on exit")
	flag.Parse()

	if err := run(*scale, *seed, *domain, *n, *profile, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "itm-probe:", err)
		os.Exit(1)
	}
	if err := writeDumps(*metricsOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "itm-probe:", err)
		os.Exit(1)
	}
}

func writeDumps(metricsOut, traceOut string) error {
	if metricsOut != "" {
		if err := obs.WriteMetricsFile(metricsOut); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := obs.WriteTraceFile(traceOut); err != nil {
			return err
		}
	}
	return nil
}

func run(scale string, seed int64, domain string, n int, profile string, budget int) error {
	cfg, err := world.ForScale(scale, seed)
	if err != nil {
		return err
	}
	inet := world.Build(cfg)
	if domain == "" {
		domain = inet.Cat.ECSDomains()[0]
	}
	prof, ok := faults.ByName(profile)
	if !ok {
		return fmt.Errorf("unknown fault profile %q", profile)
	}
	inet.PR.SetFaultPlan(faults.NewPlan(prof, seed))

	// Serve PoP 0 on loopback.
	fe := &dnssim.WireFrontend{PR: inet.PR, Auth: inet.Auth, PoP: 0}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer conn.Close()
	go fe.ServeUDP(conn, func() simtime.Time { return 12 }) // noon UTC
	fmt.Printf("resolver PoP %q serving on %s\n", inet.PR.PoPs[0].Name, conn.LocalAddr())

	client, err := dnssim.DialWireClient(conn.LocalAddr().String())
	if err != nil {
		return err
	}
	defer client.Close()
	// A read deadline turns fault-plan drops into faults.ErrTimeout
	// instead of a hung exchange; the retryer then re-sends (each retry is
	// a fresh datagram with a fresh ID, re-rolling per-packet faults).
	client.Timeout = 250 * time.Millisecond
	retry := resilience.Retryer{
		Budget: budget,
		Backoff: resilience.Backoff{
			Base:   simtime.Minute,
			Factor: 2,
			Jitter: 0.3,
			Seed:   uint64(seed),
		},
		Retryable: faults.IsTransient,
	}
	// 1 simulated minute of backoff ≈ 60ms of wall clock.
	const perHour = 0.001

	// Probe a mix of prefixes homed at PoP 0: busy eyeballs, small
	// offices, and infrastructure.
	var candidates []topology.PrefixID
	for _, asn := range inet.Top.ASNs() {
		for _, p := range inet.Top.ASes[asn].Prefixes {
			if inet.PR.HomePoP(p).ID == 0 {
				candidates = append(candidates, p)
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		return inet.Users.UsersIn(candidates[i]) > inet.Users.UsersIn(candidates[j])
	})
	if len(candidates) == 0 {
		return fmt.Errorf("no prefixes homed at PoP 0")
	}
	// Take a spread: the busiest, some middle, some empty.
	var picks []topology.PrefixID
	for i := 0; i < n && i*len(candidates)/n < len(candidates); i++ {
		picks = append(picks, candidates[i*len(candidates)/n])
	}

	fmt.Printf("probing %q with RD=0 ECS queries (faults=%s, budget=%d):\n", domain, prof.Name, budget)
	fmt.Printf("%-20s %12s %8s %9s\n", "PREFIX", "USERS", "CACHED", "ATTEMPTS")
	retries := 0
	for _, p := range picks {
		netPrefix := netip.PrefixFrom(p.Addr(0), 24)
		var hit bool
		attempts, err := retry.DoSleep(uint64(p), perHour, func(int) error {
			var perr error
			hit, perr = client.Probe(domain, netPrefix)
			return perr
		})
		retries += attempts - 1
		if err != nil {
			if faults.IsTransient(err) {
				return fmt.Errorf("probe %s: retry budget of %d spent: %w", p, budget, err)
			}
			return err
		}
		fmt.Printf("%-20s %12.0f %8v %9d\n", p, inet.Users.UsersIn(p), hit, attempts)
	}
	if retries > 0 {
		fmt.Printf("(%d datagrams re-sent after transient faults)\n", retries)
	}

	// One recursive lookup for contrast.
	var addrs []netip.Addr
	_, err = retry.DoSleep(uint64(picks[0]), perHour, func(int) error {
		var rerr error
		addrs, rerr = client.Resolve(domain, netip.PrefixFrom(picks[0].Addr(0), 24))
		return rerr
	})
	if err != nil {
		if faults.IsTransient(err) {
			return fmt.Errorf("resolve %s: retry budget of %d spent: %w", domain, budget, err)
		}
		return err
	}
	fmt.Printf("recursive answer for %s from %v: %v\n", domain, picks[0], addrs)
	return nil
}
