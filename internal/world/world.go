// Package world composes the substrates — topology, BGP, users, services,
// DNS, traffic — into one simulated Internet that measurement code can probe
// through public interfaces only.
package world

import (
	"fmt"

	"itmap/internal/bgp"
	"itmap/internal/dnssim"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/users"
)

// Config selects the world's scale and seed.
type Config struct {
	Seed     int64
	Topology topology.GenConfig
	Users    users.Config
	Services services.Config
	// RootAnonFrac is the fraction of root letters with anonymized logs.
	RootAnonFrac float64
}

// Default returns the full-scale configuration.
func Default(seed int64) Config {
	return Config{
		Seed:         seed,
		Topology:     topology.DefaultGenConfig(seed),
		Users:        users.DefaultConfig(),
		Services:     services.DefaultConfig(),
		RootAnonFrac: 0.3,
	}
}

// Small returns the integration-test/example-scale configuration.
func Small(seed int64) Config {
	c := Default(seed)
	c.Topology = topology.SmallGenConfig(seed)
	return c
}

// Tiny returns the unit-test-scale configuration.
func Tiny(seed int64) Config {
	c := Default(seed)
	c.Topology = topology.TinyGenConfig(seed)
	return c
}

// ForScale returns the configuration a -scale flag names: "tiny", "small" or
// "default". It is the one place that spelling is parsed.
func ForScale(scale string, seed int64) (Config, error) {
	switch scale {
	case "tiny":
		return Tiny(seed), nil
	case "small":
		return Small(seed), nil
	case "default":
		return Default(seed), nil
	}
	return Config{}, fmt.Errorf("unknown scale %q (want tiny, small or default)", scale)
}

// World is a fully wired simulated Internet.
type World struct {
	Cfg     Config
	Top     *topology.Topology
	Paths   *bgp.AllPaths
	Users   *users.Model
	Cat     *services.Catalog
	PR      *dnssim.PublicResolver
	Auth    *dnssim.Authoritative
	Roots   *dnssim.RootSystem
	Traffic *traffic.Model
}

// Build constructs the world: generate topology, compute routes, place
// users and services, wire DNS and demand.
func Build(cfg Config) *World {
	rng := randx.New(cfg.Seed)
	top := topology.Generate(cfg.Topology)
	um := users.Build(top, cfg.Users, rng.Fork())
	cat := services.Build(top, cfg.Services, rng.Fork())
	// Service deployment allocated new prefixes; recompute dense index, and
	// sort the prefix axis now that it is final: campaigns read it from many
	// goroutines.
	top.Freeze()
	top.AllPrefixes()
	ap := bgp.ComputeAll(top)
	hgs := top.ASesOfType(topology.Hypergiant)
	pr := dnssim.NewPublicResolver(top, cat, hgs[0], cfg.Seed)
	tm := traffic.New(top, um, cat, ap, pr, cfg.Seed)
	return &World{
		Cfg:     cfg,
		Top:     top,
		Paths:   ap,
		Users:   um,
		Cat:     cat,
		PR:      pr,
		Auth:    dnssim.NewAuthoritative(top, cat),
		Roots:   dnssim.NewRootSystem(cfg.RootAnonFrac),
		Traffic: tm,
	}
}
