"""The representation-theoretic view: why the kernel has the size it has.

Abelian groups first (characters in exact exponent form), then the
quaternion group, whose 2-dimensional representation is the textbook
fixed-point-free example and accounts for its entire kernel.
"""

from fractions import Fraction

from coset_radon import groups, radon, spectral
from coset_radon.geodesics import homomorphisms_cn

# --- characters and faithfulness ----------------------------------------------
# A character contributes to the kernel exactly when it is faithful. On
# C_n there are phi(n) of those; on a noncyclic abelian group, none, which
# is the spectral restatement of the injectivity law.

for name in ("C6", "C9", "C12", "C2xC4", "C3xC3"):
    g = groups.from_name(name)
    ct = spectral.characters(g)
    faithful = spectral.faithful_characters(ct)
    kdim = radon.is_injective(g).kernel_dim
    print(f"{name:8s} faithful characters {len(faithful):2d}   "
          f"kernel dim {kdim:2d}")
    assert len(faithful) == kdim

# --- exact completeness ----------------------------------------------------------
# Summing all characters gives |G| at the identity and 0 elsewhere. The
# zero side is a sum of roots of unity, decided exactly from the counts of
# its exponents: laid out by the Chinese remainder theorem on one axis per
# prime of the group's exponent, they must leave nothing after differencing
# along every prime axis. Dropping even one character breaks it.

ct = spectral.characters(groups.make_cyclic(6))
print(f"\nfull table completeness: {spectral.char_sum_check_characters(ct)}")
print(f"one character removed:   "
      f"{spectral.char_sum_check_characters(ct, indices=range(1, 6))}")

# --- Fourier diagonalization -------------------------------------------------------
# The transform acts diagonally in frequency: the coefficient of the
# transformed function at chi is f^(chi) times the geodesic character sum.

g = groups.from_name("C2xC4")
f = [Fraction((3 * x) % 7 - 3, 2) for x in range(8)]
print(f"\nfourier identity on C2xC4: {spectral.fourier_radon_check(g, f)}")
print(f"plancherel defect: {spectral.plancherel_defect(spectral.characters(g), f):.2e}")

# --- the quaternion group -----------------------------------------------------------
# Q8 has four linear characters and one 2-dim irreducible. Every geodesic
# sum I(rho, gamma), scaled by 1/n, is the orthogonal projection onto the
# fixed space of rho at the generator; for the 2-dim rep that space is
# zero, so the projection vanishes and the rep feeds the kernel with
# dim^2 = 4 dimensions.

q8 = groups.make_dicyclic(2)
reps = spectral.quaternion_rep_set(q8)
print(f"\nQ8 irreducible dimensions: {[r.dim for r in reps]}")
print(f"completeness: {spectral.char_sum_check(q8, reps)}")

for rep in reps:
    report = spectral.fixed_space_analysis(q8, rep)
    print(f"  dim {report.dim}: fixed span {report.fixed_span_dim}, "
          f"kernel {report.kernel_dim}, dichotomy {report.dichotomy_ok}")

for hom in homomorphisms_cn(q8, 2):
    assert spectral.check_projection(q8, reps[-1], hom)

predicted = sum(
    spectral.fixed_space_analysis(q8, r).kernel_dim * r.dim for r in reps
)
print(f"kernel predicted from representations: {predicted}, "
      f"computed from the matrix: {radon.is_injective(q8).kernel_dim}")

# the 2-dim rep's matrix coefficients x -> rho(x^-1)[i][j] are the kernel.
# They come as integer arrays, the real and imaginary parts of D times each
# coefficient; the transform is linear, so it kills a coefficient exactly
# when it kills both parts.
re, im = spectral.matrix_coefficient_vectors(q8, reps[-1])
sys = radon.build_system(q8, "prime")
assert len(re) == len(im) == 4
assert all(
    not any(radon.apply(sys, part_re)) and not any(radon.apply(sys, part_im))
    for part_re, part_im in zip(re.tolist(), im.tolist())
)
print("all four matrix-coefficient functions annihilated: confirmed")
