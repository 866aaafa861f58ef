package sim

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"tianhe/internal/cpufeat"
)

// sameValue reports whether x and y are the same float64 bit for bit, two
// NaNs counting as the same: which payload survives when both operands of
// an add are NaN depends on operand order, which the contract leaves open.
func sameValue(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

type knownAnswer struct {
	in   float64
	want uint64
}

func checkKnownAnswers(t *testing.T, name string, f func(float64) float64, kas []knownAnswer) {
	t.Helper()
	for _, ka := range kas {
		if got := math.Float64bits(f(ka.in)); got != ka.want {
			t.Errorf("%s(%v) = %#016x, recorded %#016x", name, ka.in, got, ka.want)
		}
	}
}

// drawDigest is FNV-1a over the bits of n draws and the final state.
func drawDigest(n int, draw func() float64, r *RNG) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < n; i++ {
		put(math.Float64bits(draw()))
	}
	put(r.state)
	return h.Sum64()
}

// TestVariateKnownAnswers pins the transcriptions and the draws on every
// architecture to bit patterns recorded on an FMA amd64 host, where the two
// draw digests are also what math.Log, math.Cos and math.Exp give: a host
// whose compiler fuses a product into an add, or whose Exp takes another
// path, fails here by name.
func TestVariateKnownAnswers(t *testing.T) {
	checkKnownAnswers(t, "Log", Log, logKAT)
	checkKnownAnswers(t, "Exp", Exp, expKAT)
	checkKnownAnswers(t, "cos", cos, cosKAT)
	checkKnownAnswers(t, "Log2", Log2, log2KAT)

	r := NewStream(2009, "variate/known-answers")
	const normals, factors = 0xb9ecb923ec764c04, 0x69d8831d7939dfdf
	if got := drawDigest(1000, func() float64 { return r.Normal(0, 1) }, r); got != normals {
		t.Errorf("1000 Normal(0, 1) draws: digest %#x, recorded %#x", got, uint64(normals))
	}
	if got := drawDigest(1000, func() float64 { return r.LogNormalFactor(0.1) }, r); got != factors {
		t.Errorf("1000 LogNormalFactor(0.1) draws: digest %#x, recorded %#x", got, uint64(factors))
	}
}

// The known answers: special values, the boundaries of each branch and
// mask (f1 at √2/2 and its neighbours, the octant edges, the overflow and
// subnormal steps of Exp), and ordinary arguments.
var logKAT = []knownAnswer{
	{0, 0xfff0000000000000},
	{math.Copysign(0, -1), 0xfff0000000000000},
	{-1, 0x7ff8000000000001},
	{math.Inf(1), 0x7ff0000000000000},
	{math.Inf(-1), 0x7ff8000000000001},
	{math.NaN(), 0x7ff8000000000001},
	{5e-324, 0xc08628b76e3a7b61},
	{2.2250738585072014e-308, 0xc086232bdd7abcd2},
	{1e-300, 0xc085963447f87fb5},
	{1e-10, 0xc037069e2aa2aa5b},
	{0.1, 0xc0026bb1bbb55515},
	{0.25, 0xbff62e42fefa39ef},
	{0.5, 0xbfe62e42fefa39ef},
	{0.7071067811865476, 0xbfd62e42fefa39ee},
	{0.7071067811865477, 0xbfd62e42fefa39eb},
	{0.7071067811865475, 0xbfd62e42fefa39f1},
	{0.9, 0xbfbaf8e8210a415c},
	{0.9999999999999999, 0xbca0000000000000},
	{1, 0x0000000000000000},
	{1.0000000000000002, 0x3cafffffffffffff},
	{1.5, 0x3fd9f323ecbf984c},
	{2, 0x3fe62e42fefa39ef},
	{2.718281828459045, 0x3ff0000000000000},
	{3, 0x3ff193ea7aad030a},
	{10, 0x40026bb1bbb55516},
	{100, 0x40126bb1bbb55516},
	{1e+06, 0x402ba18a998fffa0},
	{1e+100, 0x406cc845b54b54f2},
	{1e+300, 0x4085963447f87fb5},
	{1.7976931348623157e+308, 0x40862e42fefa39ef},
	{1.4142135623730951, 0x3fd62e42fefa39f0},
}

var expKAT = []knownAnswer{
	{0, 0x3ff0000000000000},
	{math.Copysign(0, -1), 0x3ff0000000000000},
	{1, 0x4005bf0a8b145769},
	{-1, 0x3fd78b56362cef38},
	{0.5, 0x3ffa61298e1e069c},
	{1e-10, 0x3ff000000006df38},
	{-1e-10, 0x3feffffffff24190},
	{0.1, 0x3ff1aec7b35a00d4},
	{-0.1, 0x3fecf46d99d52b3a},
	{2, 0x401d8e64b8d4ddae},
	{10, 0x40d5829dcf950560},
	{-10, 0x3f07cd79b5647c9b},
	{100, 0x48f3494a9b171bf5},
	{-100, 0x36ea8c1f14e2af5d},
	{700, 0x7f0d945df4f8ec8e},
	{-700, 0x00d14f2b0fb9307f},
	{708, 0x7fc586f6bf260cf1},
	{-708, 0x0017c8ab2288c9ab},
	{709, 0x7fdd422d2be5dc9b},
	{709.782712893384, 0x7ff0000000000000},
	{709.79, 0x7ff0000000000000},
	{710, 0x7ff0000000000000},
	{-708.5, 0x000e6cf6d08897ac},
	{-709, 0x0008bfe55de02338},
	{-720, 0x0000000993b4dc95},
	{-740, 0x0000000000000055},
	{-745, 0x0000000000000001},
	{-745.2, 0x0000000000000000},
	{-746, 0x0000000000000000},
	{-1e+10, 0x0000000000000000},
	{math.Inf(1), 0x7ff0000000000000},
	{math.Inf(-1), 0x0000000000000000},
	{math.NaN(), 0x7ff8000000000001},
}

var cosKAT = []knownAnswer{
	{0, 0x3ff0000000000000},
	{math.Copysign(0, -1), 0x3ff0000000000000},
	{1e-10, 0x3ff0000000000000},
	{0.5, 0x3fec1528065b7d50},
	{0.7853981633974483, 0x3fe6a09e667f3bcd},
	{0.7853981633974484, 0x3fe6a09e667f3bcc},
	{1, 0x3fe14a280fb5068c},
	{1.5707963267948966, 0x3c91a62633145c00},
	{2, 0xbfdaa22657537205},
	{2.5, 0xbfe9a2f7ef858b7d},
	{3, 0xbfefae04be85e5d2},
	{3.141592653589793, 0xbff0000000000000},
	{4, 0xbfe4eaa606db24c1},
	{5, 0x3fd22785706b4ada},
	{6.283185307179585, 0x3ff0000000000000},
	{6.283185307179586, 0x3ff0000000000000},
	{7, 0x3fe81ff79ed92017},
	{10, 0xbfead9ac890c6b1f},
	{-1, 0x3fe14a280fb5068c},
	{-3, 0xbfefae04be85e5d2},
	{100, 0x3feb981dbf665fdf},
	{1000, 0x3fe1ff026793f1bb},
	{12345.678, 0x3fe6b94c3bbe24b7},
	{1e+06, 0x3fedf9df9906d32c},
	{1e+08, 0xbfd741b388a8c029},
	{5e+08, 0xbfeeacfa519daddc},
	{5.3e+08, 0x3fe0ed0c5923fb27},
	{-2.5, 0xbfe9a2f7ef858b7d},
	{2.356194490192345, 0xbfe6a09e667f3bcc},
	{3.9269908169872414, 0xbfe6a09e667f3bce},
	{5.497787143782138, 0x3fe6a09e667f3bcc},
	{4.71238898038469, 0xbcaa79394c9e8a00},
}

var log2KAT = []knownAnswer{
	{1, 0x0000000000000000},
	{2, 0x3ff0000000000000},
	{3, 0x3ff95c01a39fbd69},
	{5, 0x4002934f0979a371},
	{8, 0x4008000000000000},
	{13, 0x400d9a802391e233},
	{64, 0x4018000000000000},
	{100, 0x401a934f0979a371},
	{1000, 0x4023ee7b471b3a95},
	{4096, 0x4028000000000000},
	{5120, 0x4028a4d3c25e68dc},
	{0.5, 0xbff0000000000000},
	{0.75, 0xbfda8ff971810a5d},
	{1e-300, 0xc08f24a09f1a8b89},
	{1e+300, 0x408f24a09f1a8b89},
	{0, 0xfff0000000000000},
}

// TestTranscriptionsMatchHostMath compares the transcriptions with the
// math package over 10^7 inputs where the math package computes what they
// transcribe: amd64 with FMA. A Go release that changes math.Log, math.Cos
// or math.Exp fails here, not silently in a golden downstream.
func TestTranscriptionsMatchHostMath(t *testing.T) {
	if runtime.GOARCH != "amd64" || !cpufeat.Host.FMA {
		t.Skip("math.Exp takes its FMA path only on amd64 with FMA")
	}
	r := NewStream(29, "variate/differential")
	check := func(name string, x, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%v [%#016x]) = %v [%#016x], math says %v [%#016x]",
				name, x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const n = 1 << 20
	for i := 0; i < n; i++ {
		// Log: any bit pattern, and the uniforms Normal feeds it.
		x := math.Float64frombits(r.Uint64())
		check("Log", x, Log(x), math.Log(x))
		u := r.Float64()
		check("Log", u, Log(u), math.Log(u))
		check("Log2", u, Log2(u), math.Log2(u))
		k := float64(r.Intn(1 << 20))
		check("Log2", k, Log2(k), math.Log2(k))
		// Exp: the whole finite range of interest, and the draws' range.
		e := r.Range(-760, 720)
		check("Exp", e, Exp(e), math.Exp(e))
		e = r.Range(-2, 2)
		check("Exp", e, Exp(e), math.Exp(e))
		x = math.Float64frombits(r.Uint64())
		check("Exp", x, Exp(x), math.Exp(x))
		// cos: Normal's [0, 2π) and the rest of its domain.
		c := 2 * math.Pi * r.Float64()
		check("cos", c, cos(c), math.Cos(c))
		c = r.Range(-1<<29, 1<<29)
		check("cos", c, cos(c), math.Cos(c))
		c = math.Ldexp(r.Float64(), -r.Intn(60))
		check("cos", c, cos(c), math.Cos(c))
	}
}

// variateKernel is a batch path: run calls f with it selected.
type variateKernel struct {
	name string
	run  func(f func())
}

// variateKernels are the batch paths this host can run.
func variateKernels() []variateKernel {
	ks := []variateKernel{{"go", WithoutKernel}}
	if useKernel {
		ks = append(ks, variateKernel{"avx512", func(f func()) { f() }})
	}
	return ks
}

// zeroDrawState is a state whose next Uint64 is 0 (SplitMix64's mix fixes
// 0), so the Normal drawn from it takes the u1 = 1e-300 clamp.
const zeroDrawState = -0x9e3779b97f4a7c15 & (1<<64 - 1)

// checkContract draws n lanes of Normal(mean, sigma) and then
// LogNormalFactor(sigma) in one batch and lane by lane from equal states,
// and requires equal values and equal final states. It returns how many
// lanes' Exp argument lay outside the kernel's |x| <= 708.
func checkContract(t *testing.T, kernel string, seed uint64, n int, mean, sigma float64) (outside int) {
	t.Helper()
	batch := make(Streams, n)
	for i := range batch {
		batch[i] = RNG{state: seed + uint64(i)*0xd1342543de82ef95}
		if i == 5 {
			batch[i].state = zeroDrawState
		}
	}
	scalar := append(Streams(nil), batch...)
	out := make([]float64, n)
	batch.Normal(mean, sigma, out)
	for i := range scalar {
		if want := scalar[i].Normal(mean, sigma); !sameValue(out[i], want) {
			t.Fatalf("%s: lane %d of %d: Normal(%v, %v) = %v, scalar %v", kernel, i, n, mean, sigma, out[i], want)
		}
	}
	batch.LogNormalFactor(sigma, out)
	for i := range scalar {
		if x := scalar[i]; !(math.Abs(x.Normal(0, sigma)) <= 708) {
			outside++
		}
		if want := scalar[i].LogNormalFactor(sigma); !sameValue(out[i], want) {
			t.Fatalf("%s: lane %d of %d: LogNormalFactor(%v) = %v, scalar %v", kernel, i, n, sigma, out[i], want)
		}
	}
	for i := range scalar {
		if batch[i] != scalar[i] {
			t.Fatalf("%s: lane %d of %d ends in state %#x, scalar %#x", kernel, i, n, batch[i].state, scalar[i].state)
		}
	}
	return outside
}

// TestVariateContract: batch draws equal lane-by-lane scalar draws, values
// and final states, under every kernel this host has — at lane counts that
// leave no whole group, ragged groups and ragged 64-lane calls, and at the
// edges of the kernel's domain.
func TestVariateContract(t *testing.T) {
	for _, k := range variateKernels() {
		k.run(func() {
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 130, 200} {
				checkContract(t, k.name, uint64(n), n, 0.5, 0.1)
			}
			// sigma = 0: every factor is 1 and no stream moves.
			s := Streams{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}}
			out := make([]float64, len(s))
			s.LogNormalFactor(0, out)
			for i := range s {
				if out[i] != 1 || s[i].state != uint64(i+1) {
					t.Fatalf("%s: LogNormalFactor(0) lane %d = %v in state %d", k.name, i, out[i], s[i].state)
				}
			}
			// Exp arguments past ±708: the overflow and subnormal steps.
			if checkContract(t, k.name, 9, 130, 0, 400) == 0 {
				t.Fatalf("%s: sigma 400 put no Exp argument past 708", k.name)
			}
			for _, sd := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				checkContract(t, k.name, 11, 24, 0, sd)
				checkContract(t, k.name, 12, 24, 3, sd)
			}
			// The u1 = 0 draw takes the clamp.
			z := Streams{{zeroDrawState}, {zeroDrawState}, {zeroDrawState}, {zeroDrawState},
				{zeroDrawState}, {zeroDrawState}, {zeroDrawState}, {zeroDrawState}}
			z.Normal(0, 1, out)
			u2 := (&RNG{0}).Float64()
			want := float64(math.Sqrt(float64(-2*Log(1e-300))) * cos(float64(2*math.Pi*u2)))
			if out[0] != want || out[7] != want {
				t.Fatalf("%s: u1 = 0 draws %v, %v; clamped Box–Muller gives %v", k.name, out[0], out[7], want)
			}
		})
	}
}

// FuzzVariateContract checks the batch contract at fuzzed seeds, lane
// counts, means and deviations under every kernel the host has.
func FuzzVariateContract(f *testing.F) {
	f.Add(uint64(1), 0, 0.0, 1.0)
	f.Add(uint64(2), 1, 0.0, 0.004)
	f.Add(uint64(3), 9, 5.0, 0.1)
	f.Add(uint64(4), 65, -1.0, 0.0)
	f.Add(uint64(5), 130, 0.0, 400.0)
	f.Add(uint64(6), 17, math.NaN(), math.Inf(1))
	f.Fuzz(func(t *testing.T, seed uint64, n int, mean, sigma float64) {
		n = int(uint(n) % 257)
		for _, k := range variateKernels() {
			k.run(func() { checkContract(t, k.name, seed, n, mean, sigma) })
		}
	})
}

// TestFillCentered: a fill equals the scalar loop it replaces — values and
// the stream's next draw — under every kernel this host has, at lengths
// with no whole group, ragged tails and a long run, and from a state whose
// draws wrap the counter past 2^64.
func TestFillCentered(t *testing.T) {
	lengths := make([]int, 0, 139)
	for n := 0; n <= 137; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1<<16)
	for _, k := range variateKernels() {
		k.run(func() {
			for _, n := range lengths {
				for _, state := range []uint64{uint64(n) * 0xd1342543de82ef95, zeroDrawState - 3} {
					got, want := make([]float64, n), make([]float64, n)
					fill, scalar := RNG{state}, RNG{state}
					fill.FillCentered(got)
					for i := range want {
						// rng.go's Float64 and the subtract, spelled out.
						want[i] = float64(scalar.Uint64()>>11)/(1<<53) - 0.5
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: state %#x, n %d: out[%d] = %v, scalar %v", k.name, state, n, i, got[i], want[i])
						}
					}
					if a, b := fill.Uint64(), scalar.Uint64(); a != b {
						t.Fatalf("%s: state %#x, n %d: next draw %#x, scalar %#x", k.name, state, n, a, b)
					}
				}
			}
		})
	}
}

// TestSkip: skipping k draws lands where k draws would, under every kernel
// this host has. Skip(k) then one draw equals draw k+1 of an unskipped copy,
// from a state the draws carry past 2^64; a skip of 2^64-2 after two draws
// wraps the whole period back to the first draw; and a fill after Skip(off)
// equals the matching slice of one long fill.
func TestSkip(t *testing.T) {
	const start, long = zeroDrawState - 3, 1<<10 + 37
	for _, k := range variateKernels() {
		k.run(func() {
			for _, skip := range []uint64{0, 1, 7, 8, 1 << 20} {
				r, walk := RNG{start}, RNG{start}
				r.Skip(skip)
				for i := uint64(0); i < skip; i++ {
					walk.Uint64()
				}
				if a, b := r.Uint64(), walk.Uint64(); a != b {
					t.Fatalf("%s: skip %d: next draw %#x, walked %#x", k.name, skip, a, b)
				}
			}
			walk := RNG{start}
			first := walk.Uint64()
			walk.Uint64()
			walk.Skip(1<<64 - 2)
			if got := walk.Uint64(); got != first {
				t.Fatalf("%s: a full-period skip draws %#x, the first draw was %#x", k.name, got, first)
			}

			full := make([]float64, long)
			base := RNG{start}
			base.FillCentered(full)
			for _, off := range []int{0, 1, 7, 8, 9, 500} {
				for _, n := range []int{0, 1, 7, 8, 13, 64, long - 500} {
					got := make([]float64, n)
					r := RNG{start}
					r.Skip(uint64(off))
					r.FillCentered(got)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(full[off+i]) {
							t.Fatalf("%s: off %d n %d: out[%d] = %v, long fill %v", k.name, off, n, i, got[i], full[off+i])
						}
					}
				}
			}
		})
	}
}
