package fmm

import "math/cmplx"

// This file implements the three translation operators of the 2-D fast
// multipole method for the logarithmic kernel (Greengard & Rokhlin 1987,
// lemmas 2.3-2.5). A multipole expansion about z0 represents
//
//	phi(z) = Q log(z - z0) + sum_{k=1..p} a_k / (z - z0)^k
//
// as the coefficient vector [Q, a_1, ..., a_p]; a local (Taylor) expansion
// about z0 represents phi(z) = sum_{l=0..p} b_l (z - z0)^l as
// [b_0, ..., b_p]. The particle potential is the real part.
//
// The translation operators keep their powers of d in [maxP+1] arrays on
// the stack, so they allocate nothing and take expansions of p <= maxP.

// binom[i][j] holds C(i, j) for i, j <= 2*maxP.
var binom [][]float64

func initBinom(n int) {
	binom = make([][]float64, n+1)
	for i := 0; i <= n; i++ {
		binom[i] = make([]float64, n+1)
		binom[i][0] = 1
		for j := 1; j <= i; j++ {
			if j == i {
				binom[i][j] = 1
				continue
			}
			binom[i][j] = binom[i-1][j-1] + binom[i-1][j]
		}
	}
}

// p2m accumulates the multipole expansion of a charge q at z about center
// z0 into coeffs (length p+1).
func p2m(coeffs []complex128, z, z0 complex128, q float64) {
	coeffs[0] += complex(q, 0)
	d := z - z0
	pow := complex(1, 0)
	for k := 1; k < len(coeffs); k++ {
		pow *= d
		coeffs[k] += complex(-q/float64(k), 0) * pow
	}
}

// m2m shifts a child multipole about zc into the parent expansion about zp,
// accumulating into dst. d = zc - zp.
func m2m(dst, src []complex128, zc, zp complex128) {
	d := zc - zp
	p := len(src) - 1
	q := src[0]
	dst[0] += q

	// Powers of d up to p.
	var powBuf [maxP + 1]complex128
	pow := powBuf[:p+1]
	pow[0] = 1
	for i := 1; i <= p; i++ {
		pow[i] = pow[i-1] * d
	}
	for l := 1; l <= p; l++ {
		acc := -q * pow[l] / complex(float64(l), 0)
		for k := 1; k <= l; k++ {
			acc += src[k] * pow[l-k] * complex(binom[l-1][k-1], 0)
		}
		dst[l] += acc
	}
}

// m2l converts a multipole expansion about zm into a local expansion about
// zl, accumulating into dst. The boxes must be well separated. d = zm - zl.
func m2l(dst, src []complex128, zm, zl complex128) {
	d := zm - zl
	p := len(src) - 1
	q := src[0]

	// invPow[k] = 1 / d^k.
	var invPowBuf [maxP + 1]complex128
	invPow := invPowBuf[:p+1]
	invPow[0] = 1
	inv := 1 / d
	for i := 1; i <= p; i++ {
		invPow[i] = invPow[i-1] * inv
	}

	// b_0 = Q log(-d) + sum_k a_k (-1)^k / d^k.
	b0 := q * cmplx.Log(-d)
	sign := -1.0
	for k := 1; k <= p; k++ {
		b0 += src[k] * invPow[k] * complex(sign, 0)
		sign = -sign
	}
	dst[0] += b0

	for l := 1; l <= p; l++ {
		acc := -q / complex(float64(l), 0)
		sign = -1.0
		for k := 1; k <= p; k++ {
			acc += src[k] * invPow[k] * complex(sign*binom[l+k-1][k-1], 0)
			sign = -sign
		}
		dst[l] += acc * invPow[l]
	}
}

// l2l shifts a parent local expansion about zp to a child center zc,
// accumulating into dst. d = zc - zp.
func l2l(dst, src []complex128, zp, zc complex128) {
	d := zc - zp
	p := len(src) - 1
	var powBuf [maxP + 1]complex128
	pow := powBuf[:p+1]
	pow[0] = 1
	for i := 1; i <= p; i++ {
		pow[i] = pow[i-1] * d
	}
	for l := 0; l <= p; l++ {
		var acc complex128
		for k := l; k <= p; k++ {
			acc += src[k] * complex(binom[k][l], 0) * pow[k-l]
		}
		dst[l] += acc
	}
}

// evalMultipole evaluates a multipole expansion about z0 at z (for operator
// unit tests; production evaluation goes through local expansions).
func evalMultipole(coeffs []complex128, z0, z complex128) complex128 {
	d := z - z0
	res := coeffs[0] * cmplx.Log(d)
	inv := 1 / d
	pow := complex(1, 0)
	for k := 1; k < len(coeffs); k++ {
		pow *= inv
		res += coeffs[k] * pow
	}
	return res
}

// evalLocal evaluates a local expansion about z0 at z.
func evalLocal(coeffs []complex128, z0, z complex128) complex128 {
	d := z - z0
	var res complex128
	pow := complex(1, 0)
	for l := 0; l < len(coeffs); l++ {
		res += coeffs[l] * pow
		pow *= d
	}
	return res
}

// evalLocalGrad evaluates the derivative of a local expansion about z0 at
// z: psi'(z) = sum_{l>=1} l b_l (z-z0)^(l-1). For the log kernel the field
// components are E_x = Re(psi'), E_y = -Im(psi').
func evalLocalGrad(coeffs []complex128, z0, z complex128) complex128 {
	d := z - z0
	var res complex128
	pow := complex(1, 0)
	for l := 1; l < len(coeffs); l++ {
		res += complex(float64(l), 0) * coeffs[l] * pow
		pow *= d
	}
	return res
}
