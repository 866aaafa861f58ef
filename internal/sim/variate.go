package sim

import (
	"math"
	"math/bits"

	"tianhe/internal/cpufeat"
)

// The variate contract (DESIGN.md §5): every number a random draw feeds is
// computed by the transcriptions below, never by the host's math package.
// Each one writes out, step by step, what math.Log, math.Cos and math.Exp
// compute on an amd64 host with FMA — log_amd64.s, sin.go's cosine and the
// FMA path of exp_amd64.s — with every product rounded (float64(x*y)) and a
// fused multiply-add (math.FMA) exactly where exp_amd64.s fuses. The
// compiler may fuse x*y+z on other architectures and math.Exp picks its code
// path from CPUID, so the host's functions differ between hosts in the last
// bit; these do not. Data-dependent choices are masks, not branches, as the
// 8-lane kernel takes them; only special cases exit early.

const (
	signBit    = 1 << 63
	posInfBits = 0x7FF0000000000000
	negInfBits = 0xFFF0000000000000
	nanBits    = 0x7FF8000000000001 // math.NaN(), and log_amd64.s's NaN
	mantMask   = 1<<52 - 1
	halfBits   = 0x3FE0000000000000 // 0.5
)

// Log is math.Log as log_amd64.s computes it, including its f1 ≤ √2/2
// compare (the portable log.go has f1 < √2/2) and its treatment of
// subnormals as if their exponent field were that of the smallest normal.
func Log(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
		l1     = 6.666666666666735130e-01
		l2     = 3.999999999940941908e-01
		l3     = 2.857142874366239149e-01
		l4     = 2.222219843214978396e-01
		l5     = 1.818357216161805012e-01
		l6     = 1.531383769920937332e-01
		l7     = 1.479819860511658591e-01
	)
	b := math.Float64bits(x)
	switch {
	case b&^signBit == 0:
		return math.Inf(-1)
	case b&signBit != 0:
		return math.Float64frombits(nanBits)
	case b >= posInfBits:
		return x
	}
	f1 := math.Float64frombits(b&mantMask | halfBits)
	k := float64(int64(b>>52) - 0x3FE)
	// The assembly's mask: 1 where f1 ≤ √2/2 (f1 is positive, so its bits
	// order as the values do), then k -= 1 and f1 *= 2 there.
	le := float64((math.Float64bits(hSqrt2)-math.Float64bits(f1))>>63 ^ 1)
	k -= le
	f1 = float64(f1 * (1 + le))
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}

// Log2 is math.Log2: Frexp, then Log of the fraction — exact at powers of
// two.
func Log2(x float64) float64 {
	frac, exp := math.Frexp(x)
	if math.Float64bits(frac) == halfBits {
		return float64(exp - 1)
	}
	return float64(Log(frac)*(1/math.Ln2)) + float64(exp)
}

// Exp is math.Exp as the FMA path of exp_amd64.s computes it: the
// Cody–Waite reduction by ln 2 and the Taylor steps fused, the four
// doublings rounded except the last.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
		c3       = 1.6666666666666666667e-1
		c4       = 4.1666666666666666667e-2
		c5       = 8.3333333333333333333e-3
		c6       = 1.3888888888888888889e-3
		c7       = 1.9841269841269841270e-4
		c8       = 2.4801587301587301587e-5
		// round adds and subtracts away the fraction of any |t| < 2^51,
		// rounding to nearest even as CVTSD2SL does.
		round = 0x1.8p52
	)
	b := math.Float64bits(x)
	switch {
	case b&^signBit >= posInfBits:
		if b == negInfBits {
			return 0
		}
		return x
	case x > overflow:
		return math.Inf(1)
	case x < -1000: // 2^k underflows even the subnormal step below
		return 0
	}
	k := float64(float64(log2e*x)+round) - round
	r := math.FMA(-ln2U, k, x)
	r = math.FMA(-ln2L, k, r)
	r = float64(r * 0.0625)
	p := math.FMA(c8, r, c7)
	p = math.FMA(p, r, c6)
	p = math.FMA(p, r, c5)
	p = math.FMA(p, r, c4)
	p = math.FMA(p, r, c3)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r, r+2, 1)
	e := int64(k) + 0x3FF
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e <= 0:
		if e < -52 {
			return 0
		}
		r = float64(r * math.Float64frombits(uint64(e+0x3FE)<<52))
		e = 1
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}

// cos is math.Cos (sin.go) for |x| < 2^29, where sin.go reduces by the
// three-part π/4 of its octant arithmetic; Normal's argument is in [0, 2π).
// Both polynomials are evaluated and the octant's is kept.
func cos(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1
		pi4B = 3.77489470793079817668e-8
		pi4C = 2.69515142907905952645e-15
		sin0 = 1.58962301576546568060e-10
		sin1 = -2.50507477628578072866e-8
		sin2 = 2.75573136213857245213e-6
		sin3 = -1.98412698295895385996e-4
		sin4 = 8.33333333332211858878e-3
		sin5 = -1.66666666666666307295e-1
		cos0 = -1.13585365213876817300e-11
		cos1 = 2.08757008419747316778e-9
		cos2 = -2.75573141792967388112e-7
		cos3 = 2.48015872888517045348e-5
		cos4 = -1.38888888888730564116e-3
		cos5 = 4.16666666666665929218e-2
	)
	x = math.Abs(x)
	j := uint64(float64(x * (4 / math.Pi)))
	j += j & 1 // map zeros to origin
	y := float64(j)
	z := float64(float64(x-float64(y*pi4A))-float64(y*pi4B)) - float64(y*pi4C)
	zz := float64(z * z)
	ps := float64(sin0*zz) + sin1
	ps = float64(ps*zz) + sin2
	ps = float64(ps*zz) + sin3
	ps = float64(ps*zz) + sin4
	ps = float64(ps*zz) + sin5
	pc := float64(cos0*zz) + cos1
	pc = float64(pc*zz) + cos2
	pc = float64(pc*zz) + cos3
	pc = float64(pc*zz) + cos4
	pc = float64(pc*zz) + cos5
	sinv := math.Float64bits(z + float64(float64(z*zz)*ps))
	cosv := math.Float64bits((1.0 - float64(0.5*zz)) + float64(float64(zz*zz)*pc))
	// Octants 2 and 6 (j&2) take the sine polynomial; 2 and 4 are negative.
	useSin := -(j >> 1 & 1)
	return math.Float64frombits((cosv&^useSin | sinv&useSin) ^ (j+2)&4<<61)
}

// Streams are generators drawn in lock step: lane i of a batch draw is
// bit for bit what the same call on s[i] returns, and leaves s[i] in the
// same state. On a host with AVX-512F and DQ whose OS saves the ZMM state,
// whole groups of eight lanes run on an 8-lane kernel that computes the
// transcriptions above instruction for instruction; the rest, and any lane
// whose exp argument leaves the kernel's domain, take the scalar path.
type Streams []RNG

// Normal fills out[:len(s)] with s[i].Normal(mean, sd).
func (s Streams) Normal(mean, sd float64, out []float64) {
	out = out[:len(s)]
	for i := s.kernel(mean, sd, false, out); i < len(s); i++ {
		out[i] = s[i].Normal(mean, sd)
	}
}

// LogNormalFactor fills out[:len(s)] with s[i].LogNormalFactor(sigma);
// sigma = 0 gives 1 and advances no stream.
func (s Streams) LogNormalFactor(sigma float64, out []float64) {
	out = out[:len(s)]
	if sigma == 0 {
		for i := range out {
			out[i] = 1
		}
		return
	}
	for i := s.kernel(0, sigma, true, out); i < len(s); i++ {
		out[i] = s[i].LogNormalFactor(sigma)
	}
}

// useKernel is chosen once, from the host's features; only WithoutKernel
// lowers it, for tests.
var useKernel = cpufeat.Host.AVX512DQ

// kernelLanes is how many lanes one kernel call draws at most: its bit mask
// of out-of-domain lanes is one word.
const kernelLanes = 64

// kernel draws the whole groups of eight on the 8-lane kernel, where the
// host has it, and returns how many lanes it drew. With exp set, a lane the
// kernel reports outside |x| ≤ 708 holds its Normal draw, and Exp finishes
// it here.
func (s Streams) kernel(mean, sd float64, exp bool, out []float64) int {
	if !useKernel {
		return 0
	}
	n := len(s) &^ 7
	for g := 0; g < n; g += kernelLanes {
		oob := variates8(&s[g].state, min(kernelLanes, n-g), mean, sd, exp, &out[g])
		for ; oob != 0; oob &= oob - 1 {
			i := g + bits.TrailingZeros64(oob)
			out[i] = Exp(out[i])
		}
	}
	return n
}

// FillCentered sets out[i] = r.Float64() - 0.5 for every i in order and
// leaves r where that loop would. SplitMix64 is counter-based, so on a host
// with AVX-512F and DQ whose OS saves the ZMM state the whole groups of
// eight fill on an 8-lane kernel, each lane mixing its own state + k*golden;
// the tail takes the scalar loop.
func (r *RNG) FillCentered(out []float64) {
	n := 0
	if useKernel && len(out) >= 8 {
		n = len(out) &^ 7
		centered8(r.state, n, &out[0])
		r.state += uint64(n) * golden
	}
	for i := n; i < len(out); i++ {
		out[i] = r.Float64() - 0.5
	}
}

// WithoutKernel runs f with every batch draw and fill on the portable path,
// the reference the kernels are checked against. No other goroutine may draw
// meanwhile.
func WithoutKernel(f func()) {
	old := useKernel
	useKernel = false
	defer func() { useKernel = old }()
	f()
}
