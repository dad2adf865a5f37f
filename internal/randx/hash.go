package randx

import "math"

// Hash-based deterministic "randomness": pure functions of their inputs,
// used where the simulator needs stable per-entity draws (per-prefix
// affinities, per-probe cache outcomes) without storing them. Based on
// splitmix64 finalization.

// Hash64 mixes the parts into a single 64-bit hash. It is a left fold of
// Fold over the parts, so a caller hashing many part lists that share a
// prefix can hash the prefix once: Hash64(a, b, c) == Fold(Hash64(a, b), c).
func Hash64(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = Fold(h, p)
	}
	return h
}

// Fold mixes one more part into a Hash64 state.
func Fold(h, part uint64) uint64 {
	h ^= part + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	return splitmix(h)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashFloat returns a deterministic uniform draw in [0, 1) from the parts.
func HashFloat(parts ...uint64) float64 {
	return Unit(Hash64(parts...))
}

// Unit maps a hash to the uniform draw in [0, 1) HashFloat makes of it.
func Unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// HashBool returns a deterministic Bernoulli(p) draw from the parts.
func HashBool(p float64, parts ...uint64) bool {
	return HashFloat(parts...) < p
}

// HashNorm returns a deterministic standard normal draw via Box–Muller on
// two derived uniforms.
func HashNorm(parts ...uint64) float64 {
	h := Hash64(parts...)
	u1 := Unit(h)
	u2 := Unit(splitmix(h))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// HashLognormal returns a deterministic exp(N(mu, sigma)) draw.
func HashLognormal(mu, sigma float64, parts ...uint64) float64 {
	return math.Exp(mu + sigma*HashNorm(parts...))
}
