package faults

import "itmap/internal/simtime"

// Profile parameterizes one fault regime. The zero Profile injects nothing.
type Profile struct {
	Name string

	// PacketLoss is the per-probe drop probability at a healthy PoP
	// (either direction; the prober only sees silence).
	PacketLoss float64
	// ServfailRate is the per-query probability of a SERVFAIL answer.
	ServfailRate float64

	// ThrottleWindow is the rate limiter's accounting window (default 1h).
	ThrottleWindow simtime.Time
	// ThrottleTripProb is the probability a probing source trips the
	// per-source limiter in one accounting window.
	ThrottleTripProb float64
	// BanDuration is how long a tripped source stays banned.
	BanDuration simtime.Time

	// PoPOutageProb is the per-PoP, per-day probability of one transient
	// outage of PoPOutageDuration.
	PoPOutageProb     float64
	PoPOutageDuration simtime.Time

	// ICMPDropProb is the per-hop probability a router's ICMP rate
	// limiter drops the TTL-exceeded reply to a traceroute probe.
	ICMPDropProb float64
}

// None is the zero profile: no faults, byte-identical behaviour.
func None() Profile { return Profile{Name: "none"} }

// Calm models a good day on the real Internet: sub-percent loss, rare
// SERVFAILs, limiters that only notice genuinely abusive sources.
func Calm() Profile {
	return Profile{
		Name:              "calm",
		PacketLoss:        0.01,
		ServfailRate:      0.003,
		ThrottleWindow:    2 * simtime.Hour,
		ThrottleTripProb:  0.02,
		BanDuration:       10 * simtime.Minute,
		PoPOutageProb:     0.02,
		PoPOutageDuration: 20 * simtime.Minute,
		ICMPDropProb:      0.03,
	}
}

// Lossy models a congested or flaky substrate: double-digit loss, visible
// throttling, occasional PoP flaps.
func Lossy() Profile {
	return Profile{
		Name:              "lossy",
		PacketLoss:        0.12,
		ServfailRate:      0.03,
		ThrottleWindow:    2 * simtime.Hour,
		ThrottleTripProb:  0.18,
		BanDuration:       45 * simtime.Minute,
		PoPOutageProb:     0.15,
		PoPOutageDuration: 90 * simtime.Minute,
		ICMPDropProb:      0.15,
	}
}

// Hostile models the substrate actively fighting a naive prober: heavy
// loss, aggressive per-source bans covering much of the day, multi-hour PoP
// outages, frequent SERVFAILs.
func Hostile() Profile {
	return Profile{
		Name:              "hostile",
		PacketLoss:        0.30,
		ServfailRate:      0.10,
		ThrottleWindow:    2 * simtime.Hour,
		ThrottleTripProb:  0.50,
		BanDuration:       90 * simtime.Minute,
		PoPOutageProb:     0.50,
		PoPOutageDuration: 3 * simtime.Hour,
		ICMPDropProb:      0.35,
	}
}

// Presets returns the named regimes in increasing severity.
func Presets() []Profile { return []Profile{Calm(), Lossy(), Hostile()} }

// ByName resolves a preset name ("none", "calm", "lossy", "hostile").
func ByName(name string) (Profile, bool) {
	switch name {
	case "none", "":
		return None(), true
	case "calm":
		return Calm(), true
	case "lossy":
		return Lossy(), true
	case "hostile":
		return Hostile(), true
	}
	return Profile{}, false
}
