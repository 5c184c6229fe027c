package bits

import "math/bits"

// GF(2) matrix utilities for general SPN linear layers. A matrix over up
// to 64 columns is represented as rows []uint64, where bit i of rows[j]
// says that input bit i contributes (XORs) into output bit j.

// MatMulVec multiplies the matrix by the column vector x: output bit j is
// the parity of rows[j] AND x.
func MatMulVec(rows []uint64, x uint64) uint64 {
	var y uint64
	for j, r := range rows {
		y |= uint64(bits.OnesCount64(r&x)&1) << uint(j)
	}
	return y
}

// PermutationRows materialises a bit permutation (output bit perm[i] =
// input bit i) as a matrix.
func PermutationRows(perm []int) []uint64 {
	rows := make([]uint64, len(perm))
	for i, p := range perm {
		rows[p] = 1 << uint(i)
	}
	return rows
}

// MatInvert returns the inverse matrix over GF(2), or ok=false if the
// matrix is singular. Standard Gauss-Jordan elimination on an augmented
// system.
func MatInvert(rows []uint64) (inv []uint64, ok bool) {
	n := len(rows)
	a := append([]uint64(nil), rows...)
	inv = make([]uint64, n)
	for j := range inv {
		inv[j] = 1 << uint(j)
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r]&(1<<uint(col)) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		for r := 0; r < n; r++ {
			if r != col && a[r]&(1<<uint(col)) != 0 {
				a[r] ^= a[col]
				inv[r] ^= inv[col]
			}
		}
	}
	return inv, true
}

// RotationXORRows builds the circulant matrix of x -> x ^ (x <<< r1) ^
// (x <<< r2) ... over n bits; such layers are the cheap mixing functions
// of several lightweight designs.
func RotationXORRows(n int, rots ...int) []uint64 {
	rows := make([]uint64, n)
	for j := 0; j < n; j++ {
		for _, r := range rots {
			// Output bit j receives input bit (j - r) mod n from
			// the left-rotation by r.
			src := ((j-r)%n + n) % n
			rows[j] ^= 1 << uint(src)
		}
	}
	return rows
}
