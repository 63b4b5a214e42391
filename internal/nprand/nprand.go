// Package nprand provides the deterministic pseudo-randomness used across
// the simulator and the probing algorithms.
//
// Two distinct sources of randomness exist in a multipath route tracer and
// its simulated network, and they must not be conflated:
//
//   - A stateful stream (Source) drives stochastic choices made over time:
//     which flow identifier to try next, packet-loss coin flips, workload
//     generation. The paper's Fakeroute uses the C++ Mersenne Twister here;
//     we use xoshiro256** seeded via splitmix64, which has equivalent or
//     better statistical quality for this purpose and is trivially
//     reproducible from a single uint64 seed.
//
//   - A stateless per-flow hash (FlowHash) models how a per-flow load
//     balancer deterministically maps a packet's flow identifier to one of
//     its successor interfaces. The same flow must always take the same
//     branch (assumption (2) of Veitch et al.), while distinct flows must
//     spread uniformly (assumption (3)).
//
// In the layering, nprand is a thin leaf utility: it depends on nothing
// in this module and everything stochastic — fakeroute, the probing
// algorithms, workload generation — depends on it.
package nprand

// splitmix64 advances the seed and returns the next value of the splitmix64
// sequence. It is used to expand a single user seed into the 256-bit state
// xoshiro256** requires, following the generator authors' recommendation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Equal seeds yield equal
// streams on every platform.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A pathological all-zero state (only possible if splitmix64 emitted
	// four zeros, which it cannot from any seed, but we keep the guard for
	// clarity and safety under future edits).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("nprand: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's nearly
// division-free method with rejection to eliminate modulo bias.
func (r *Source) boundedUint64(n uint64) uint64 {
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			// -n % n == (2^64 - n) % n, the rejection threshold.
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the swap callback.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Categorical draws an index from the discrete distribution given by
// weights. Zero-weight entries are never chosen. It panics if weights is
// empty or sums to zero.
func (r *Source) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("nprand: negative weight")
		}
		total += w
	}
	if total == 0 || len(weights) == 0 {
		panic("nprand: empty or zero-sum weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Fork derives an independent child stream. Children with distinct labels
// are statistically independent of each other and of the parent's future
// output; forking is deterministic given the parent state and label.
func (r *Source) Fork(label uint64) *Source {
	return New(r.Uint64() ^ mix64(label))
}

// IndexedSeed derives the seed for the idx-th independent run of a batch
// from a base seed, spacing seeds by the 64-bit golden ratio (the
// splitmix64 increment) so nearby indices land far apart in seed space.
// The survey runner and mmlpt.TraceEach share this derivation; equal
// (base, idx) always selects the same stream.
func IndexedSeed(base uint64, idx int) uint64 {
	return base ^ uint64(idx)*0x9e3779b97f4a7c15
}

// FlowHash maps (key, flowID) to a 64-bit value that is deterministic per
// flow and uniform across flows. Load balancers use it to pick a successor:
// a router identified by key dispatches flowID to bucket
// FlowHash(key, flowID) % fanout.
//
// The construction is a strengthened FNV-1a over the two 64-bit inputs with
// an avalanche finalizer (the 64-bit variant of MurmurHash3's fmix); plain
// FNV has weak low-bit diffusion for short inputs, which would bias small
// modulo fanouts. It equals FlowHashFrom(KeyState(key), flowID).
func FlowHash(key, flowID uint64) uint64 {
	return FlowHashFrom(KeyState(key), flowID)
}

// KeyState is FlowHash's state after folding key: a balancer whose key is
// fixed hashes it once and dispatches each flow with FlowHashFrom.
func KeyState(key uint64) uint64 {
	return fnvFold(0xcbf29ce484222325, key) // the FNV-1a offset basis
}

// FlowHashFrom finishes FlowHash from a KeyState: it folds flowID's eight
// bytes and applies the finalizer.
func FlowHashFrom(state, flowID uint64) uint64 {
	return mix64(fnvFold(state, flowID))
}

// fnvFold folds v's eight bytes, least significant first, into FNV-1a
// state h.
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 0x100000001b3 // the 64-bit FNV prime
	}
	return h
}

// mix64 is the 64-bit finalizer from MurmurHash3 (fmix64): a bijective
// avalanche function.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
