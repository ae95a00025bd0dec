"""Numerical thresholds, one name per meaning.

Every comparison in msta that holds only up to rounding takes its
threshold from this table.  Two thresholds with the same value but
different meanings have different names, so changing one cannot move the
other.  `msta.oracle` keeps its own thresholds: the reference stays
independent of the code it checks.
"""

# -- algebra ----------------------------------------------------------------

# Coefficients at or below this are dropped from a multivector: rounding
# residue of order-one products and sums.
PRUNE_EPS = 1e-14
# `exp_i`'s Taylor series stops once its remainder bound is below this,
# under one ulp of the order-one result.
SERIES_TOL = 1e-16
# Largest coefficient of reverse(a) - a accepted as Hermitian, for density
# operators and `exp_i` generators.
HERMITIAN_TOL = 1e-10
# `allclose`'s default: two results of order-one arithmetic whose
# coefficients agree to this are the same multivector.
MATCH_TOL = 1e-12
# An algebraic identity checked on computed multivectors (the projector
# sphere relations, a rotor's unitarity, a Hamiltonian commuting with the
# projectors) holds to this.
IDENTITY_TOL = 1e-10

# -- states -----------------------------------------------------------------

# 2^n <rho> of a density operator differs from 1 by at most this.
TRACE_TOL = 1e-10
# A unit vector's norm (spin, frame and measurement axes) differs from 1 by
# at most this; a Bloch vector's norm exceeds 1 by at most this.
UNIT_TOL = 1e-12
# State amplitudes' norm differs from 1 by at most this.  They come from
# outside (state files, user arrays) and are divided by their norm after
# the check, so only a gross error is refused.
NORM_TOL = 1e-9
# Two product states share a qubit's axis when the axis vectors differ by
# at most this.
AXIS_TOL = 1e-9
# Largest coefficient of rho^2 - rho for a pure state: `is_pure`'s default
# and the entanglement measures' gate.
PURE_TOL = 1e-9
# The purity gate of invariant extraction, looser than PURE_TOL: it also
# takes states that `reconstruct` built from solved angles.
INVARIANT_PURE_TOL = 1e-8
# The term-by-term sphere construction skips an off-diagonal term whose
# weight sqrt(p_i p_j) is below this: it would move no coefficient past
# PRUNE_EPS.
NEGLIGIBLE_WEIGHT = 1e-16

# -- invariants -------------------------------------------------------------

# A reduced Bloch length at or below this makes a state degenerate:
# invariant extraction refuses it (see `degenerate_limit`), and the 2-qubit
# pair check is skipped.
DEGENERATE_V = 1e-8
# A Bloch length, or product of two, below this is zero to the invariant
# formulas, which divide by the lengths.
VANISHING_V = 1e-10
# Pure-state consistency: a 2-qubit state's two reduced lengths, its pair
# correlation against v^2, and a 3-qubit state's three pairwise vbar2
# estimates agree to this.
PAIR_TOL = 1e-9
# Feasibility of exactly given invariants: p >= 0, B <= 0 and the lengths
# in [0, 1] may fail by this much, rounding of the closed forms.
FEASIBILITY_SLACK = 1e-10
# Feasibility of invariants measured from a state, which carry more
# rounding than the closed forms alone.
REPORT_SLACK = 1e-9
# The existence conditions of the named invariant points (seed, negative
# seed, maximum and zero 3-tangle, the two-vector limit) may fail by this.
EXISTENCE_SLACK = 1e-12
# A value checked against a closed interval (a Bloch length in [0, 1], an
# angle in [0, pi]) may pass its upper end by this.
RANGE_SLACK = 1e-12
# An expansion probability below this is an exact zero: boundary states
# leave rounding residue near 1e-17, whose square root (3e-9) would make
# vectors that cannot close.
PROB_FLOOR = 1e-13

# -- entanglement and dynamics ----------------------------------------------

# A measurement outcome less likely than this is refused: the update
# divides by its probability.
OUTCOME_FLOOR = 1e-12
# In `ProductEvolution`, a half-sum or half-difference of two unit spins
# shorter than this has no direction; a fixed orthogonal one stands in.
DEGENERATE_AXIS = 1e-12

# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53


def purity_defect_allowance(n: int) -> float:
    """What one dense step on an n-qubit state of Tr(rho^2) <= 1 may add to
    the root-sum-square of the Pauli coefficients of rho^2 - rho: one
    `dynamics.evolve` step, the measurement of that norm, or the rounding
    of one construction (`states._certified`).

    Derivation.  Write |X| = ||X||_F / sqrt(d), d = 2^n, for the
    root-sum-square of X's Pauli coefficients: it bounds each coefficient,
    unitary conjugation leaves it unchanged, and |A X| <= ||A||_2 |X|.  A
    state with Tr(rho^2) <= 1 has ||rho||_2 <= 1.  A step returns
    rho' = W rho W^H + D with W exactly unitary, so

        rho'^2 - rho' = W (rho^2 - rho) W^H + (W rho W^H D + D W rho W^H + D^2 - D)

    and |rho'^2 - rho'| <= |rho^2 - rho| + 3 |D| to first order in D.  With
    u the unit roundoff, an evolve step (`algebra._dense_conjugate`) forms
    R = Y^H M Y from rho's matrix M and Y = V diag(e^{i t w}), V the
    eigenvectors of H = V diag(w) V^H, and returns P vec(R), P the Pauli
    coefficients of the eigen-dyads v_j v_k^H; exactly, that is
    Z^H M Z with Z = Y V^H.  |D| collects:

    - the prune of at most d^2 coefficients, each at most PRUNE_EPS:
      d PRUNE_EPS;
    - the transform to the matrix M, sums of d terms of +-1 weight per
      entry: d u;
    - the two complex matmuls of R: 2 (d + 2) u;
    - Z's departure from an exactly unitary W: `eigh`'s eigenvectors are
      orthonormal to a small multiple of d u (LAPACK's backward-error
      bound), and each phase has modulus 1 to within u and enters Y as one
      complex product; its argument's rounding, of order |t w| u, is a
      diagonal unitary and moves W, not D.  So ||Z^H Z - I||_2 <= d^2 u,
      which moves rho by 2 d^2 u |rho|, and |rho| <= 1 / sqrt(d), so by at
      most 2 d^1.5 u;
    - P's own rounding, one complex product and a transform of d terms
      per entry: ||dP||_F <= (d + 2) u ||P||_F.  P = Q / sqrt(d) with Q
      unitary, so ||P||_F = sqrt(d), and ||vec(R)||_2 = sqrt(d) |rho|;
      this moves the result by at most (d + 2) d u |rho| <= (d + 2)
      sqrt(d) u;
    - P's sums, d^2 products per coefficient: at most
      d^2 u ||P||_F ||vec(R)||_2 = d^3 u |rho| <= d^2.5 u.

    With the phases per pair e^{-i t (w_j - w_k)} instead, the rounding of
    t (w_j - w_k), of order |t| norm1(H) u, is no unitary and would belong
    to D, unbounded in t.  For d = 2, 4, 8 and 16 the rounding terms sum
    to 27, 76, 283 and 1276 u, under 8 d^2 u = 32, 128, 512 and 2048 u, so
    |D| <= d PRUNE_EPS + 8 d^2 u.  The rounding term is doubled, to
    16 d^2 u, to cover the second-order terms and the measurement: the
    dense square rho rho - rho of the defect itself and the transform of
    its coefficients, about 4 d u.  A state of Tr(rho^2) > 1 scales every
    term by at most Tr(rho^2).  Above d = 16 `dynamics.evolve` carries no
    bound; the constructors' rounding (`states._certified`) and the
    measurement stay within d PRUNE_EPS + 8 d^2 u at any d.
    """
    d = float(1 << n)
    return 3.0 * (d * PRUNE_EPS + 16.0 * d * d * _UNIT_ROUNDOFF)


# -- vector-sum solver ------------------------------------------------------

# Gauss-Newton stops once every component of the three vector sums is
# below this.
SOLVER_TOL = 1e-11
# A vector length within this of zero is zero: below -ZERO_LENGTH it is an
# error, and twelve lengths under it close at any angles.
ZERO_LENGTH = 1e-12
# A converged iterate within this (per angle, modulo 2 pi) of a {0, pi}
# lattice point that closes the sums is that point, and is dropped.
SNAP_RADIUS = 1e-3
# Two solutions closer than this per angle, modulo 2 pi, are one.
DEDUP_RADIUS = 1e-6
# A max-abs residual at most this times the longest length L is rounding,
# and Gauss-Newton retires a start there after a full step: each component
# of `_sums` adds four terms of modulus at most L, each rounded by about
# 2 eps L (its angle, exponential and product), in three additions of about
# 2 eps L each: 14 eps L, rounded up.
SUM_FLOOR = 16.0 * 2.0**-52
# Angles given to `reconstruct` close the vector sums to this, looser than
# SOLVER_TOL so that angles printed or rounded by a caller still pass.
SUM_TOL = 1e-8
# An eliminant coefficient at most this times the largest term its samples
# were made of is rounding, and is trimmed from either end of the
# polynomial: the a^2 factor and the coefficients past degree 7 come out
# below 1e-14 of those terms, the others above 1e-10 (real-amplitude
# states) and 6e-6 (random complex ones).
ELIMINANT_TRIM = 1e-12
# An eliminant root whose log radius is within this of 0 gives starts.
# Lengths with few correct digits near a product state split a
# near-double root on the circle across it by up to 0.06; at 1e-6 no root
# was left for 49 of 100 states 0.1 from |000>, and for 76 of 100 at 0.01.
UNIT_CIRCLE_TOL = 0.1
# A start goes to Gauss-Newton when its six sums are below this times the
# longest length: starts from true roots leave at most 1e-9 on random
# complex states and 6e-5 at the near-double roots of real-amplitude ones;
# the spurious ones leave 1e-4 and more.
START_TOL = 1e-4

# -- CLI --------------------------------------------------------------------

# The CLI's number cells come from an exact 12-digit integer mantissa for
# |x| in [FIXED_FORMAT_MIN, FIXED_FORMAT_MAX): there y = |x| 10^(11 - E) < 2^40
# takes a power of ten of at most 10^22, an exact double, so y is rounded
# once, by at most half an ulp below 2^40, 2^-14 = 6.1e-5.  A y within
# FIXED_FORMAT_WINDOW of a half may round to the wrong integer, and takes
# the per-value path.
FIXED_FORMAT_MIN = 1e-11
FIXED_FORMAT_MAX = 1e11
FIXED_FORMAT_WINDOW = 1e-4

# region-scan pads the feasible box by a tenth of its extent, and by at
# least a tenth of this, so that a box of zero width still spans a grid.
SCAN_PAD_FLOOR = 1e-3
# `verify`'s pass bound for the algebra-oracle campaign, the bound of
# acceptance criterion 1.
VERIFY_ALGEBRA_TOL = 1e-10
# `verify`'s pass bound for I6 against the hyperdeterminant, the bound of
# acceptance criterion 5.
VERIFY_TANGLE_TOL = 1e-8
