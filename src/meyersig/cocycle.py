"""The signature cocycle tau_g on Sp(2g;Z).

For A, B in Sp(2g;Z) the value tau_sp(A, B) is the signature of the
bilinear pairing

    <(x, y), (x', y')> = (x + y)^T J (I - B) y'

restricted to the rational vector space

    V_{A,B} = { (x, y) : (A^{-1} - I) x + (B - I) y = 0 }.

Topologically this is the signature of a surface bundle over a pair of
pants whose two cuff monodromies act on homology by A and B; the algebra
below is the exact, finite computation of that signature.  The pairing is
symmetric when restricted to V_{A,B}; this is asserted rather than
assumed, because a failure pinpoints a kernel-basis bug immediately.
"""

from dataclasses import dataclass

from .exact import kernel_basis, signature
from .matrix import IntMatrix
from .symplectic import SymplecticMatrix, standard_j


@dataclass(frozen=True)
class VSpace:
    """An integer basis of V_{A,B} inside Z^{2g} + Z^{2g} (length-4g vectors)."""

    g: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def v_space(a: SymplecticMatrix, b: SymplecticMatrix) -> VSpace:
    """Kernel basis of the 2g x 4g block matrix [A^{-1} - I | B - I]."""
    if a.g != b.g:
        raise ValueError(f"genus mismatch: {a.g} vs {b.g}")
    n = 2 * a.g
    ident = IntMatrix.identity(n)
    left = a.inverse().mat - ident
    right = b.mat - ident
    rows = [left.rows[r] + right.rows[r] for r in range(n)]
    return VSpace(a.g, tuple(kernel_basis(rows, ncols=2 * n)))


def tau_sp(a: SymplecticMatrix, b: SymplecticMatrix) -> int:
    """Signature of the pants-bundle pairing on V_{A,B}.

    Zero whenever either argument is the identity or B = A^{-1}; bounded
    by dim V_{A,B} <= 4g in absolute value.
    """
    space = v_space(a, b)
    if not space.basis:
        return 0
    n = 2 * a.g
    w = standard_j(a.g) * (IntMatrix.identity(n) - b.mat)
    sums = [tuple(v[t] + v[t + n] for t in range(n)) for v in space.basis]
    w_ys = [w.apply(v[n:]) for v in space.basis]
    gram = [
        [sum(s * t for s, t in zip(sums[i], w_ys[j])) for j in range(space.dim)]
        for i in range(space.dim)
    ]
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            if gram[i][j] != gram[j][i]:
                raise ArithmeticError(
                    "pairing is not symmetric on V_{A,B}; "
                    "this indicates a kernel-basis bug"
                )
    return signature(gram).value


def sigma_defect_via_tau(alpha: SymplecticMatrix) -> int:
    """tau_1(alpha, -I), the genus-1 signature defect of alpha.

    Agrees with the closed-form 2x2 signature computed in
    :func:`meyersig.genus1.signature_defect`; the agreement of the two
    routes is one of the package's cross-checked invariants.
    """
    if alpha.g != 1:
        raise ValueError(f"defined only at genus 1, got genus {alpha.g}")
    minus_one = SymplecticMatrix([[-1, 0], [0, -1]], 1)
    return tau_sp(alpha, minus_one)
