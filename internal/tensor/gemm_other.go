//go:build !amd64

package tensor

// useFMA is false off amd64: matMulTransBRange always runs the portable
// kernel there.
const useFMA = false

// fmaRowTransB exists so the shared wrapper compiles; useFMA keeps it
// unreachable.
func fmaRowTransB(out, a, b *float64, k, n int) {
	panic("tensor: no FMA kernel on this architecture")
}
